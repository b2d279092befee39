"""The base of the package's records: immutable slotted classes that act like frozen
dataclasses, with their ``__match_args__`` (by default their ``__slots__``) as fields.
``__setattr__`` refuses stores, so an ``__init__`` stores through its slots' :func:`setters`."""


def setters(*classes) -> list:
    """Each slot's own ``__set__``, class by class: a store with no lookup of the name."""
    return [getattr(cls, name).__set__ for cls in classes for name in cls.__slots__]


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field '{name}' of an immutable record")

    __delattr__ = __setattr__
