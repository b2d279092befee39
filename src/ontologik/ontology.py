"""Ontological types arranged in a single-inheritance tree.

Types live in their own sort, apart from logical predicates: a type can
restrict a quantifier or annotate a variable, but it is never asserted of
anything the way a predicate is. The tree is immutable once loaded; every
query below is a pure read.

Subsumption is the reflexive-transitive ancestor relation: ``subsumes(g, s)``
holds when ``g`` lies on the parent chain of ``s`` (or equals it). It is
answered in constant time from labels the tree gets once, at construction
(Aït-Kaci, Boyer, Lincoln & Nasr, TOPLAS 1989; Agrawal, Borgida & Jagadish,
SIGMOD 1989): each type's pre-order index, the last pre-order index in its
subtree, and its depth. A subtree is then one contiguous pre-order range, so
``g`` subsumes ``s`` exactly when ``pre[g] <= pre[s] <= last[g]``. A
comparison reads each name's label once; an unknown name raises
:class:`UnknownTypeError` for the first in argument order. An ``Ontology``
is an immutable slotted class.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from enum import Enum, auto
from types import MappingProxyType

from ._value import Value, _set
from .errors import OntologyError, UnknownTypeError

# Type names are plain lowercase identifiers.
TypeName = str

_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*$")


class SubsumptionVerdict(Enum):
    """Outcome of comparing two types under subsumption."""

    EQUAL = auto()
    FIRST_SUBSUMES_SECOND = auto()
    SECOND_SUBSUMES_FIRST = auto()
    INCOMPARABLE = auto()


class Ontology(Value):
    """A rooted tree of type names. Construct via :func:`load_ontology`.

    A parent map built through the API may list a child before its parent,
    but it must form one tree under ``root``; anything else raises
    :class:`OntologyError`. ``parent`` is kept as a read-only copy, so the
    labels cannot go stale.
    """

    __match_args__ = ("root", "parent")  # the fields
    # _pre maps a name to its pre-order number; _order, _last and _depth are indexed by it.
    __slots__ = (*__match_args__, "_pre", "_order", "_last", "_depth")

    def __init__(self, root: TypeName, parent: Mapping[TypeName, TypeName | None]):
        _set(self, "root", root)
        _set(self, "parent", MappingProxyType(dict(parent)))
        if self.parent.get(self.root, self.root) is not None:
            raise OntologyError(f"root '{self.root}' is not a parentless type")
        children: dict[TypeName, list[TypeName]] = {name: [] for name in self.parent}
        for name, up in self.parent.items():
            if up in children:
                children[up].append(name)
            elif up is not None:
                raise OntologyError(f"unknown parent '{up}' for '{name}'")
            elif name != self.root:
                raise OntologyError(f"second root '{name}' (root '{self.root}' already declared)")
        pre: dict[TypeName, int] = {}
        order: list[TypeName] = []
        depth: list[int] = []
        stack = [self.root]
        while stack:  # pre-order, so a parent is numbered before its children
            name = stack.pop()
            up = self.parent[name]
            pre[name] = len(order)
            order.append(name)
            depth.append(0 if up is None else depth[pre[up]] + 1)
            stack.extend(reversed(children[name]))
        if len(order) < len(self.parent):
            stray = next(name for name in self.parent if name not in pre)
            raise OntologyError(f"cycle: '{stray}' is not below root '{self.root}'")
        last = list(range(len(order)))
        for i in range(len(order) - 1, 0, -1):  # a subtree's nodes all come after its root
            up = pre[self.parent[order[i]]]
            last[up] = max(last[up], last[i])
        _set(self, "_pre", pre)
        _set(self, "_order", tuple(order))
        _set(self, "_last", last)
        _set(self, "_depth", depth)

    def __reduce__(self):  # a mapping proxy does not pickle; the labels are rebuilt
        return Ontology, (self.root, dict(self.parent))

    def __hash__(self):  # a mapping proxy does not hash; equal ontologies agree on this
        return hash((self.root, len(self.parent)))

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._pre

    def __len__(self) -> int:
        return len(self.parent)

    def require(self, name: str) -> TypeName:
        if name not in self._pre:
            raise UnknownTypeError(name)
        return name

    def _index(self, name: str) -> int:
        try:
            return self._pre[name]
        except KeyError:
            raise UnknownTypeError(name) from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def ancestors(self, name: TypeName) -> list[TypeName]:
        """The chain from ``name`` up to the root, inclusive on both ends."""
        self.require(name)
        chain = [name]
        while (up := self.parent[chain[-1]]) is not None:
            chain.append(up)
        return chain

    def depth(self, name: TypeName) -> int:
        return self._depth[self._index(name)]

    def subsumes(self, general: TypeName, specific: TypeName) -> bool:
        """True when ``general`` is ``specific`` or one of its ancestors."""
        pre = self._pre
        try:
            g, s = pre[general], pre[specific]
        except KeyError:
            raise UnknownTypeError(specific if general in pre else general) from None
        return g <= s <= self._last[g]

    def compare(self, first: TypeName, second: TypeName) -> SubsumptionVerdict:
        pre = self._pre
        try:
            a, b = pre[first], pre[second]
        except KeyError:
            raise UnknownTypeError(second if first in pre else first) from None
        if a == b:
            return SubsumptionVerdict.EQUAL
        if a < b <= self._last[a]:
            return SubsumptionVerdict.FIRST_SUBSUMES_SECOND
        if b < a <= self._last[b]:
            return SubsumptionVerdict.SECOND_SUBSUMES_FIRST
        return SubsumptionVerdict.INCOMPARABLE

    def comparable_count(self, name: TypeName) -> int:
        """How many types are comparable with ``name``: its subtree, itself
        included, and its proper ancestors."""
        i = self._index(name)
        return self._last[i] - i + 1 + self._depth[i]

    def comparable_types(self, name: TypeName) -> list[TypeName]:
        """The types comparable with ``name``: its subtree in pre-order,
        itself first, then its proper ancestors from the parent up."""
        i = self._index(name)
        types = list(self._order[i : self._last[i] + 1])
        while (name := self.parent[name]) is not None:
            types.append(name)
        return types


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def load_ontology(source: str) -> Ontology:
    """Parse ontology source text into an immutable :class:`Ontology`.

    Line format, one declaration per line::

        type <name>                # the single root, declared first
        type <name> isa <parent>   # every other type
        # comment lines and blank lines are ignored

    Parents must be declared before their children. Violations are reported
    with the offending line number.
    """
    parent: dict[TypeName, TypeName | None] = {}
    root: TypeName | None = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "type":
            raise OntologyError(f"expected a 'type' declaration, got '{line}'", lineno)
        if len(fields) == 2:
            name = fields[1]
            _check_name(name, lineno)
            if name in parent:
                raise OntologyError(f"duplicate type '{name}'", lineno)
            if root is not None:
                raise OntologyError(
                    f"second root '{name}' (root '{root}' already declared)", lineno
                )
            parent[name] = None
            root = name
        elif len(fields) == 4 and fields[2] == "isa":
            name, up = fields[1], fields[3]
            _check_name(name, lineno)
            _check_name(up, lineno)
            if up not in parent:
                raise OntologyError(f"unknown parent '{up}' for '{name}'", lineno)
            if name in parent:
                # Re-declaration. An edge back into the declared subtree would
                # close a loop; report that before the duplicate itself.
                if _would_cycle(parent, name, up):
                    raise OntologyError(
                        f"cycle: '{name}' already subsumes '{up}'", lineno
                    )
                if parent[name] != up:
                    raise OntologyError(
                        f"multiple parents for '{name}': "
                        f"'{parent[name] or root}' and '{up}'",
                        lineno,
                    )
                raise OntologyError(f"duplicate type '{name}'", lineno)
            parent[name] = up
        else:
            raise OntologyError(f"malformed declaration '{line}'", lineno)

    if root is None:
        raise OntologyError("missing root: no parentless type declared", len(source.splitlines()) or 1)
    return Ontology(root=root, parent=parent)


def _check_name(name: str, lineno: int):
    if not _NAME_RE.match(name):
        raise OntologyError(
            f"bad type name '{name}': lowercase identifier required", lineno
        )


def _would_cycle(parent: dict[TypeName, TypeName | None], name: TypeName, up: TypeName) -> bool:
    cur: TypeName | None = up
    while cur is not None:
        if cur == name:
            return True
        cur = parent[cur]
    return False
