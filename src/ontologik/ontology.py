"""Ontological types arranged in a single-inheritance tree.

Types live in their own sort, apart from logical predicates: a type can
restrict a quantifier or annotate a variable, but it is never asserted of
anything the way a predicate is. The tree is immutable once loaded; every
query below is a pure read.

Subsumption is the reflexive-transitive ancestor relation: ``subsumes(g, s)``
holds when ``g`` lies on the parent chain of ``s`` (or equals it).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

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


@dataclass(frozen=True)
class Ontology:
    """A rooted tree of type names. Construct via :func:`load_ontology`."""

    root: TypeName
    parent: dict[TypeName, TypeName | None]

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.parent

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def nodes(self) -> tuple[TypeName, ...]:
        return tuple(self.parent)

    def require(self, name: str) -> TypeName:
        if name not in self.parent:
            raise UnknownTypeError(name)
        return name

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
        return len(self.ancestors(name)) - 1

    def subsumes(self, general: TypeName, specific: TypeName) -> bool:
        """True when ``general`` is ``specific`` or one of its ancestors."""
        self.require(general)
        cur: TypeName | None = self.require(specific)
        while cur is not None:
            if cur == general:
                return True
            cur = self.parent[cur]
        return False

    def compare(self, first: TypeName, second: TypeName) -> SubsumptionVerdict:
        if first == second:
            self.require(first)
            return SubsumptionVerdict.EQUAL
        if self.subsumes(first, second):
            return SubsumptionVerdict.FIRST_SUBSUMES_SECOND
        if self.subsumes(second, first):
            return SubsumptionVerdict.SECOND_SUBSUMES_FIRST
        return SubsumptionVerdict.INCOMPARABLE


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
