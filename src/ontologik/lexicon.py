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

from ._value import Value, setters
from .errors import LexiconError
from .ontology import Ontology, SubsumptionVerdict, TypeName

_ID = r"([A-Za-z_]\w*)"
# A whole declaration line, comment included: a predicate's name and argument
# list, a relation's name, domain and range, or a proper name and its type.
_DECL_RE = re.compile(
    rf"\s*(?:pred\s+{_ID}\s*\(([^)#]*)\)|rel\s+{_ID}\s*\(\s*{_ID}\s*,\s*{_ID}\s*\)"
    rf"|name\s+{_ID}\s*::\s*{_ID})\s*(?:#.*)?"
)
_KEYWORDS = (("pred", "predicate"), ("rel", "relation"), ("name", "name"))


class PredicateSignature(Value):
    """A predicate and the type each argument slot expects."""

    __slots__ = ("name", "arg_types")

    @property
    def arity(self) -> int:
        return len(self.arg_types)


class SalientRelation(Value):
    """A binary relation coercion may appeal to, e.g. EATING(person, food).
    ``priority`` is its declaration order; lower wins ties."""

    __slots__ = ("name", "domain_type", "range_type", "priority")


class NameDecl(Value):
    """A proper name and its declared type."""

    __slots__ = ("name", "declared_type")


class Lexicon(Value):
    """Predicate signatures, salient relations, and names. Load-once.

    Built at construction, ``arg_types`` maps each name that may head an
    atom to the types its arguments expect: a declared predicate's, or the
    domain and range of the relation of that name. A predicate and a relation
    sharing a name, or two relations of one name, raise :class:`LexiconError`
    as in :func:`load_lexicon`, so every bridge analysis builds fits its atom.
    Relations are also kept in buckets by domain type and by range type, so
    a lookup reads only the relations near the types it is asked about.
    ``signatures``, ``names`` and ``arg_types`` are read-only, so a loaded
    lexicon cannot be changed.

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
        signatures = dict(signatures or {})
        _lex_signatures(self, MappingProxyType(signatures))
        _lex_names(self, MappingProxyType(dict(names or {})))
        _lex_relations(self, tuple(relations))
        arg_types: dict[str, tuple[TypeName, ...]] = {}
        by_domain: dict[TypeName, list[int]] = {}
        by_range: dict[TypeName, list[int]] = {}
        for i, rel in enumerate(self.relations):
            if rel.name in signatures:
                raise LexiconError(f"relation '{rel.name}' clashes with a predicate")
            if rel.name in arg_types:
                raise LexiconError(f"duplicate relation '{rel.name}'")
            arg_types[rel.name] = rel.domain_type, rel.range_type
            by_domain.setdefault(rel.domain_type, []).append(i)
            by_range.setdefault(rel.range_type, []).append(i)
        arg_types.update({name: sig.arg_types for name, sig in signatures.items()})
        _lex_arg_types(self, MappingProxyType(arg_types))
        _lex_by_domain(self, by_domain)
        _lex_by_range(self, by_range)

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


(_lex_signatures, _lex_relations, _lex_names, _lex_arg_types, _lex_by_domain,
 _lex_by_range) = setters(Lexicon)
# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def load_lexicon(source: str, ont: Ontology) -> Lexicon:
    """Parse lexicon source text against an already-loaded ontology.

    Line formats::

        pred <name>(<type>[, <type>]*)
        rel <NAME>(<domain>, <range>)
        name <Name> :: <type>

    Comments (``#``) and blank lines are ignored. All types mentioned must exist in the
    ontology. Predicate, relation and proper names are ASCII identifiers, as LF text spells
    them, and a proper name starts uppercase. No predicate or relation may reuse a type name
    or be named ``and``, a reserved word of LF, and no predicate and relation may share a
    name: the line that breaks a rule, or the later of the two, raises :class:`LexiconError`.
    """
    signatures: dict[str, PredicateSignature] = {}
    relations: dict[str, SalientRelation] = {}
    names: dict[str, NameDecl] = {}
    types = ont.parent
    declaration = _DECL_RE.fullmatch
    for lineno, raw in enumerate(source.splitlines(), start=1):
        m = declaration(raw)
        if m is None:  # blank, a comment or an error
            line = raw.split("#", 1)[0].strip()
            if line:
                kind = next((kind for word, kind in _KEYWORDS if line.startswith(word)), None)
                what = f"malformed {kind}" if kind else "unrecognized"
                raise LexiconError(f"{what} declaration '{line}'", lineno)
            continue
        pred, args, rel, dom, rng, name, t = m.groups()
        if pred is not None:
            args = [a.strip() for a in args.split(",")]
            if not all(args):
                raise LexiconError(f"predicate '{pred}' needs at least one argument type", lineno)
            if pred in types or pred == "and" or not pred.isascii():
                raise _misnamed("predicate", pred, types, lineno)
            if pred in signatures:
                raise LexiconError(f"duplicate predicate '{pred}'", lineno)
            if pred in relations:
                raise LexiconError(f"predicate '{pred}' clashes with a relation", lineno)
            for a in args:
                if a not in types:
                    raise LexiconError(f"unknown type '{a}'", lineno)
            signatures[pred] = PredicateSignature(pred, tuple(args))
        elif rel is not None:
            if rel in types or rel == "and" or not rel.isascii():
                raise _misnamed("relation", rel, types, lineno)
            if rel in relations:
                raise LexiconError(f"duplicate relation '{rel}'", lineno)
            if rel in signatures:
                raise LexiconError(f"relation '{rel}' clashes with a predicate", lineno)
            if dom not in types or rng not in types:
                raise LexiconError(f"unknown type '{rng if dom in types else dom}'", lineno)
            relations[rel] = SalientRelation(rel, dom, rng, priority=len(relations))
        elif not (name.isascii() and name[0].isupper()):
            raise LexiconError(f"name '{name}' must be a capitalized ASCII identifier", lineno)
        elif name in names:
            raise LexiconError(f"duplicate name '{name}'", lineno)
        elif t not in types:
            raise LexiconError(f"unknown type '{t}'", lineno)
        else:
            names[name] = NameDecl(name, t)
    return Lexicon(signatures, tuple(relations.values()), names)


def _misnamed(kind: str, name: str, types: Mapping[TypeName, object], lineno: int) -> LexiconError:
    """The error for a predicate or relation name that no LF text can use."""
    if not name.isascii():
        return LexiconError(f"{kind} '{name}' must be an ASCII identifier", lineno)
    if name in types:
        return LexiconError(f"{kind} '{name}' clashes with an ontology type", lineno)
    return LexiconError(f"{kind} 'and' is a reserved word of the LF syntax", lineno)
