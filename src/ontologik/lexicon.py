"""Logical predicates, salient relations, and proper names.

The lexicon is the second sort of the model: predicates carry per-argument
type expectations but are not themselves types, and no identifier may live
in both sorts at once. Salient relations are the bridges metonymic coercion
may walk (who does what to what), and a coercion search compares only
the far side of each relation it reads; proper names map constants to their
declared types. All are immutable slotted classes.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType

from ._value import Value, _set
from .errors import LexiconError
from .ontology import Ontology, SubsumptionVerdict, TypeName

_PRED_RE = re.compile(r"pred\s+([A-Za-z_]\w*)\s*\(\s*([^)]*?)\s*\)$")
_REL_RE = re.compile(r"rel\s+([A-Za-z_]\w*)\s*\(\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\)$")
_NAME_RE = re.compile(r"name\s+([A-Za-z_]\w*)\s*::\s*([A-Za-z_]\w*)$")


class PredicateSignature(Value):
    """A predicate and the type each argument slot expects."""

    __slots__ = ("name", "arg_types")

    def __init__(self, name: str, arg_types: tuple[TypeName, ...]):
        _set(self, "name", name)
        _set(self, "arg_types", arg_types)

    @property
    def arity(self) -> int:
        return len(self.arg_types)


class SalientRelation(Value):
    """A binary relation coercion may appeal to, e.g. EATING(person, food)."""

    __slots__ = ("name", "domain_type", "range_type", "priority")

    def __init__(self, name: str, domain_type: TypeName, range_type: TypeName, priority: int):
        _set(self, "name", name)
        _set(self, "domain_type", domain_type)
        _set(self, "range_type", range_type)
        _set(self, "priority", priority)  # declaration order; lower wins ties


class NameDecl(Value):
    """A proper name and its declared type."""

    __slots__ = ("name", "declared_type")

    def __init__(self, name: str, declared_type: TypeName):
        _set(self, "name", name)
        _set(self, "declared_type", declared_type)


class Lexicon(Value):
    """Predicate signatures, salient relations, and names. Load-once.

    Built at construction, ``arg_types`` maps each name that may head an
    atom to the types its arguments expect: a declared predicate's, else the
    domain and range of the first relation of that name (:func:`load_lexicon`
    rejects a predicate and a relation of one name). Relations are also
    kept in buckets by domain type and by range type, so a lookup reads only
    the relations near the types it is asked about. ``signatures``,
    ``names`` and ``arg_types`` are read-only, so a loaded lexicon cannot be
    changed.

    Every type a signature, relation or name mentions must be a type of the
    ontology the lexicon is used with. :func:`load_lexicon` checks this; a
    lexicon built through the API is not checked, because it does not hold
    the ontology, and a relation naming an unknown type may raise
    :class:`UnknownTypeError` or silently never be a coercion candidate.
    """

    __match_args__ = ("signatures", "relations", "names")  # the fields
    # _by_domain and _by_range map a type to relation positions.
    __slots__ = (*__match_args__, "arg_types", "_by_domain", "_by_range")

    def __init__(
        self, signatures: Mapping[str, PredicateSignature] | None = None,
        relations: tuple[SalientRelation, ...] = (), names: Mapping[str, NameDecl] | None = None,
    ):
        _set(self, "signatures", MappingProxyType(dict(signatures or {})))
        _set(self, "names", MappingProxyType(dict(names or {})))
        _set(self, "relations", tuple(relations))
        arg_types: dict[str, tuple[TypeName, ...]] = {}
        by_domain: dict[TypeName, list[int]] = {}
        by_range: dict[TypeName, list[int]] = {}
        for i, rel in enumerate(self.relations):
            arg_types.setdefault(rel.name, (rel.domain_type, rel.range_type))
            by_domain.setdefault(rel.domain_type, []).append(i)
            by_range.setdefault(rel.range_type, []).append(i)
        arg_types.update({name: sig.arg_types for name, sig in self.signatures.items()})
        _set(self, "arg_types", MappingProxyType(arg_types))
        _set(self, "_by_domain", by_domain)
        _set(self, "_by_range", by_range)

    def __reduce__(self):  # a mapping proxy does not pickle; the buckets are rebuilt
        return Lexicon, (dict(self.signatures), self.relations, dict(self.names))

    def __hash__(self):  # a mapping proxy does not hash; equal lexicons agree on this
        return hash((len(self.signatures), len(self.relations), len(self.names)))

    def atom_signature(self, pred: str) -> PredicateSignature | None:
        """Signature for anything that may head an atom: a declared predicate,
        or a salient relation standing as its own two-place predicate (the
        shape analysis emits when it surfaces missing text)."""
        sig = self.signatures.get(pred)
        if sig is None and pred in self.arg_types:
            return PredicateSignature(pred, self.arg_types[pred])
        return sig

    def coercion_candidates(
        self, ont: Ontology, target_type: TypeName, source_type: TypeName
    ) -> list[SalientRelation]:
        """Relations that could reconcile ``source_type`` with ``target_type``.

        A relation qualifies when its domain is comparable with the target and
        its range comparable with the source. Candidates come back ordered by
        exactness of the range match, then of the domain match, then priority,
        then declaration order, so callers can commit to the first without a
        second look.

        Only relations near one type are read: of the target and the source,
        the one with fewer comparable types (subtree size plus depth) looks up
        its side's buckets (domain for the target, range for the source) over
        its subtree, one pre-order range, and its proper ancestors. A
        qualifying relation is in one of those buckets, so none is missed,
        and every relation in them is comparable on that side, so only the
        far side of each is compared. Relations must name types of ``ont``,
        as :func:`load_lexicon` checks.
        """
        if ont.comparable_count(target_type) <= ont.comparable_count(source_type):
            near, buckets, far, side = target_type, self._by_domain, source_type, "range_type"
        else:
            near, buckets, far, side = source_type, self._by_range, target_type, "domain_type"
        nearby = sorted(i for t in ont.comparable_types(near) for i in buckets.get(t, ()))
        rels = [self.relations[i] for i in nearby]
        apart = SubsumptionVerdict.INCOMPARABLE
        found = [rel for rel in rels if ont.compare(getattr(rel, side), far) is not apart]
        found.sort(
            key=lambda rel: (
                rel.range_type != source_type,
                rel.domain_type != target_type,
                rel.priority,
            )
        )
        return found


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def load_lexicon(source: str, ont: Ontology) -> Lexicon:
    """Parse lexicon source text against an already-loaded ontology.

    Line formats::

        pred <name>(<type>[, <type>]*)
        rel <NAME>(<domain>, <range>)
        name <Name> :: <type>

    Comments (``#``) and blank lines are ignored. All types mentioned must
    exist in the ontology, no predicate may reuse a type name, and no
    predicate and relation may share a name: the later declaration of the
    two raises :class:`LexiconError` at its line.
    """
    signatures: dict[str, PredicateSignature] = {}
    relations: dict[str, SalientRelation] = {}
    names: dict[str, NameDecl] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("pred"):
            m = _PRED_RE.match(line)
            if not m:
                raise LexiconError(f"malformed predicate declaration '{line}'", lineno)
            name, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
            if not all(args) or not args:
                raise LexiconError(f"predicate '{name}' needs at least one argument type", lineno)
            if name in ont:
                raise LexiconError(
                    f"predicate '{name}' clashes with an ontology type", lineno
                )
            if name in signatures:
                raise LexiconError(f"duplicate predicate '{name}'", lineno)
            if name in relations:
                raise LexiconError(f"predicate '{name}' clashes with a relation", lineno)
            for a in args:
                _require_type(ont, a, lineno)
            signatures[name] = PredicateSignature(name, tuple(args))
        elif line.startswith("rel"):
            m = _REL_RE.match(line)
            if not m:
                raise LexiconError(f"malformed relation declaration '{line}'", lineno)
            name, dom, rng = m.groups()
            if name in relations:
                raise LexiconError(f"duplicate relation '{name}'", lineno)
            if name in signatures:
                raise LexiconError(f"relation '{name}' clashes with a predicate", lineno)
            _require_type(ont, dom, lineno)
            _require_type(ont, rng, lineno)
            relations[name] = SalientRelation(name, dom, rng, priority=len(relations))
        elif line.startswith("name"):
            m = _NAME_RE.match(line)
            if not m:
                raise LexiconError(f"malformed name declaration '{line}'", lineno)
            name, t = m.groups()
            if name in names:
                raise LexiconError(f"duplicate name '{name}'", lineno)
            _require_type(ont, t, lineno)
            names[name] = NameDecl(name, t)
        else:
            raise LexiconError(f"unrecognized declaration '{line}'", lineno)
    return Lexicon(signatures, tuple(relations.values()), names)


def _require_type(ont: Ontology, name: str, lineno: int):
    if name not in ont:
        raise LexiconError(f"unknown type '{name}'", lineno)
