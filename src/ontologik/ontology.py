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

:func:`load_ontology` reads a line with ``str`` methods, so loading imports no
``re``: the text before the first ``#``, split at blanks (any character
``str.isspace`` takes), declares a type when its fields are ``type <name>`` or
``type <name> isa <parent>`` and each name is a lowercase ASCII identifier.
"""
from ._value import MappingProxyType, Value, setters
from .errors import OntologyError, UnknownTypeError

# Type names are plain lowercase identifiers.
TypeName = str


class SubsumptionVerdict:
    """Outcome of comparing two types under subsumption: one of the four
    members, each made once at import. A member is immutable, compares and
    hashes by identity and pickles to itself; no ``Enum`` stands behind it."""

    __slots__ = ("name",)
    __setattr__ = __delattr__ = Value.__setattr__
    EQUAL: "SubsumptionVerdict"
    FIRST_SUBSUMES_SECOND: "SubsumptionVerdict"
    SECOND_SUBSUMES_FIRST: "SubsumptionVerdict"
    INCOMPARABLE: "SubsumptionVerdict"

    def __new__(cls, *args, **kwargs):
        raise TypeError("SubsumptionVerdict has only its four members")

    def __repr__(self):
        return f"SubsumptionVerdict.{self.name}"
    __reduce__ = __repr__  # pickle and copy look the member up by this qualified name


for _name in SubsumptionVerdict.__annotations__:  # the annotated names are the members
    object.__setattr__(_verdict := object.__new__(SubsumptionVerdict), "name", _name)
    setattr(SubsumptionVerdict, _name, _verdict)
del _name, _verdict


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

    def __init__(self, root: TypeName, parent: dict[TypeName, TypeName | None]):
        parent = dict(parent)
        _ont_root(self, root)
        _ont_parent(self, MappingProxyType(parent))
        if parent.get(root, root) is not None:
            raise OntologyError(f"root '{root}' is not a parentless type")
        children: dict[TypeName, list[TypeName]] = {}  # only parents get a list
        for name, up in parent.items():
            if up in parent:
                children.setdefault(up, []).append(name)
            elif up is not None:
                raise OntologyError(f"unknown parent '{up}' for '{name}'")
            elif name != root:
                raise OntologyError(f"second root '{name}' (root '{root}' already declared)")
        order: list[TypeName] = []
        stack = [root]
        while stack:  # pre-order, so a parent is numbered before its children
            name = stack.pop()
            order.append(name)
            if name in children:
                stack.extend(reversed(children[name]))
        pre = dict(zip(order, range(len(order))))
        if len(order) < len(parent):
            stray = next(name for name in parent if name not in pre)
            raise OntologyError(f"cycle: '{stray}' is not below root '{root}'")
        up_at = [pre.get(parent[name], -1) for name in order]  # the root's is -1
        depth, last = [0] * len(order), list(range(len(order)))
        for i in range(1, len(order)):  # a parent comes before its children
            depth[i] = depth[up_at[i]] + 1
        for i in range(len(order) - 1, 0, -1):  # a subtree's nodes all come after its root
            if last[up_at[i]] < last[i]:
                last[up_at[i]] = last[i]
        _ont_pre(self, pre)
        _ont_order(self, tuple(order))
        _ont_last(self, last)
        _ont_depth(self, depth)

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


_ont_root, _ont_parent, _ont_pre, _ont_order, _ont_last, _ont_depth = setters(Ontology)
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
    lines = source.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.partition("#")[0].split()
        if len(fields) == 4 and fields[2] == "isa":
            name, up = fields[1], fields[3]
        elif len(fields) == 2:
            name, up = fields[1], None
        else:  # blank, a comment or an error
            if fields:
                _reject(raw, fields, lineno)
            continue
        # a type name is a lowercase ASCII identifier; a declared parent is one
        if fields[0] != "type" or not (name.isidentifier() and name.isascii() and name.lower() == name):
            _reject(raw, fields, lineno)
        if up in parent and name not in parent:
            parent[name] = up
        elif up is not None and up not in parent:
            _reject(raw, fields, lineno)  # a parent that is no type name is reported so
            raise OntologyError(f"unknown parent '{up}' for '{name}'", lineno)
        elif name in parent:
            # Re-declaration. An edge back into the declared subtree would
            # close a loop; report that before the duplicate itself.
            if _would_cycle(parent, name, up):
                raise OntologyError(f"cycle: '{name}' already subsumes '{up}'", lineno)
            if up not in (None, parent[name]):
                raise OntologyError(
                    f"multiple parents for '{name}': '{parent[name] or root}' and '{up}'", lineno
                )
            raise OntologyError(f"duplicate type '{name}'", lineno)
        elif root is not None:
            raise OntologyError(f"second root '{name}' (root '{root}' already declared)", lineno)
        else:
            parent[name], root = None, name
    if root is None:
        raise OntologyError("missing root: no parentless type declared", len(lines) or 1)
    return Ontology(root=root, parent=parent)


def _reject(raw: str, fields: list[str], lineno: int):
    """Raise the error for a line that declares no type, given the fields of
    its text before any comment; return if it declares one."""
    line = raw.partition("#")[0].strip()
    if fields[0] != "type":
        raise OntologyError(f"expected a 'type' declaration, got '{line}'", lineno)
    if len(fields) == 2 or (len(fields) == 4 and fields[2] == "isa"):
        for name in fields[1::2]:
            if not (name.isidentifier() and name.isascii() and name.lower() == name):
                raise OntologyError(f"bad type name '{name}': lowercase identifier required", lineno)
        return
    raise OntologyError(f"malformed declaration '{line}'", lineno)


def _would_cycle(parent: dict[TypeName, TypeName | None], name: TypeName, up: TypeName | None) -> bool:
    while up is not None:
        if up == name:
            return True
        up = parent[up]
    return False
