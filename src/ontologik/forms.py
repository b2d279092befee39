"""Logical-form nodes, which :mod:`ontologik.logform` parses, prints and rewrites:
immutable slotted classes, so ``import ontologik`` needs no ``dataclasses``."""
from __future__ import annotations

from enum import Enum

from ._value import Value
from .ontology import TypeName


class QuantKind(Enum):
    EXISTS = "E"
    EXISTS_UNIQUE = "E!"
    FORALL = "A"


class Atom(Value):
    __slots__ = ("pred", "args")


class And(Value):
    __slots__ = ("items",)


class Not(Value):
    __slots__ = ("item",)


class Implies(Value):
    __slots__ = ("antecedent", "consequent")


class Quant(Value):
    __slots__ = ("kind", "var", "vtype", "body")

    # A prefix is read in a loop, as pretty and alpha_equal do, so comparing, hashing
    # or printing a prefix of any length takes no frame per binder.
    def __eq__(self, other):
        if not isinstance(other, Quant):
            return NotImplemented
        a, b = self, other
        while isinstance(a, Quant) and isinstance(b, Quant):
            if a.kind is not b.kind or a.var != b.var or a.vtype != b.vtype:
                return False
            a, b = a.body, b.body
        return a == b

    def __hash__(self):
        prefix, matrix = read_prefix(self)
        return hash((tuple(prefix), matrix))

    def __repr__(self):
        prefix, matrix = read_prefix(self)
        heads = "".join(f"Quant(kind={k!r}, var={v!r}, vtype={t!r}, body=" for k, v, t in prefix)
        return heads + repr(matrix) + ")" * len(prefix)


Form = Atom | And | Not | Implies | Quant
Binder = tuple[QuantKind, str, TypeName | None]


def read_prefix(f: Form) -> tuple[list[Binder], Form]:
    """The maximal quantifier prefix of ``f``, outermost first, and its matrix."""
    prefix = []
    while isinstance(f, Quant):
        prefix.append((f.kind, f.var, f.vtype))
        f = f.body
    return prefix, f


def with_prefix(prefix: list[Binder], matrix: Form) -> Form:
    """The inverse of :func:`read_prefix`."""
    for kind, var, vtype in reversed(prefix):
        matrix = Quant(kind, var, vtype, matrix)
    return matrix
