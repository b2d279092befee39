"""The base of the package's records: immutable slotted classes that act like frozen
dataclasses, with their ``__match_args__`` (by default their ``__slots__``) as fields.
``__setattr__`` refuses stores, so an ``__init__`` stores through each slot's own ``__set__``:
a record gets one that takes its slots in order, by position or by keyword, unless it writes
its own with :func:`setters` for derived fields or defaults."""


def setters(*classes) -> list:
    """Each slot's own ``__set__``, class by class: a store with no lookup of the name."""
    return [getattr(cls, name).__set__ for cls in classes for name in cls.__slots__]


def _initializer(cls):
    """An ``__init__`` of one straight-line store per slot, as ``namedtuple`` builds its
    ``__new__``: it runs the code a hand-written one would, and its errors name the class."""
    names = cls.__slots__
    namespace = {f"_set_{name}": store for name, store in zip(names, setters(cls))}
    stores = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{stores}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls.__slots__
        if "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(cls)

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
