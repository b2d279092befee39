"""Logical predicates, salient relations, and proper names.

The lexicon is the second sort of the model: predicates carry per-argument
type expectations but are not themselves types, and no identifier may live
in both sorts at once. Salient relations are the bridges metonymic coercion
may walk (who does what to what), and a coercion search compares only
the far side of each relation it reads; proper names map constants to their
declared types. All are immutable slotted classes.

:func:`load_lexicon` reads a line with ``str`` methods, so loading imports no
``re``: it cuts the text before the first ``#`` at the first ``(``, which one
``)`` closes at the line's end, or else at ``::``, and what comes before must
split at blanks (``str.isspace``) into a keyword and a name. A name is an ASCII
letter or ``_`` and then ``_`` or characters ``str.isalnum`` takes, in any script.
"""
from __future__ import annotations

from types import MappingProxyType

from ._value import Value, setters
from .errors import LexiconError
from .ontology import Ontology, SubsumptionVerdict, TypeName

# The characters a declared name may start with (see _is_name).
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
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
        self, signatures: dict[str, PredicateSignature] | None = None,
        relations: tuple[SalientRelation, ...] = (), names: dict[str, NameDecl] | None = None,
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
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:  # blank or a comment
            continue
        head, paren, args = line.partition("(")
        if paren:  # "pred <name>(<args>)" or "rel <name>(<dom>, <rng>)", one ")" ending the line
            args, close, after = args.partition(")")
            ok = close and not after
        else:  # "name <name> :: <type>"
            head, ok, t = line.partition("::")
            t = t.strip()
        fields = head.split()
        if not ok or len(fields) != 2:
            raise _malformed(line, lineno)
        word, name = fields
        if not (name.isascii() and name.isidentifier() or _is_name(name)):
            raise _malformed(line, lineno)
        if word == "pred" and paren:
            args = [a.strip() for a in args.split(",")]
            if not all(args):
                raise LexiconError(f"predicate '{name}' needs at least one argument type", lineno)
            if name in types or name == "and" or not name.isascii():
                raise _misnamed("predicate", name, types, lineno)
            if name in signatures:
                raise LexiconError(f"duplicate predicate '{name}'", lineno)
            if name in relations:
                raise LexiconError(f"predicate '{name}' clashes with a relation", lineno)
            for a in args:
                if a not in types:
                    raise LexiconError(f"unknown type '{a}'", lineno)
            signatures[name] = PredicateSignature(name, tuple(args))
        elif word == "rel" and paren:
            dom, comma, rng = args.partition(",")
            dom, rng = dom.strip(), rng.strip()
            if not (comma and (dom in types or _is_name(dom)) and (rng in types or _is_name(rng))):
                raise _malformed(line, lineno)
            if name in types or name == "and" or not name.isascii():
                raise _misnamed("relation", name, types, lineno)
            if name in relations:
                raise LexiconError(f"duplicate relation '{name}'", lineno)
            if name in signatures:
                raise LexiconError(f"relation '{name}' clashes with a predicate", lineno)
            if dom not in types or rng not in types:
                raise LexiconError(f"unknown type '{rng if dom in types else dom}'", lineno)
            relations[name] = SalientRelation(name, dom, rng, priority=len(relations))
        elif word != "name" or paren or t not in types and not _is_name(t):
            raise _malformed(line, lineno)
        elif not (name.isascii() and name[0].isupper()):
            raise LexiconError(f"name '{name}' must be a capitalized ASCII identifier", lineno)
        elif name in names:
            raise LexiconError(f"duplicate name '{name}'", lineno)
        elif t not in types:
            raise LexiconError(f"unknown type '{t}'", lineno)
        else:
            names[name] = NameDecl(name, t)
    return Lexicon(signatures, tuple(relations.values()), names)


def _is_name(name: str) -> bool:
    """Whether ``name`` reads as one name: an ASCII letter or underscore, then
    letters, digits or numerals of any script or underscores."""
    return name[:1] in _NAME_START and name.replace("_", "a").isalnum()


def _malformed(line: str, lineno: int) -> LexiconError:
    """The error for a line that is no declaration, named by the keyword it starts with."""
    kind = next((kind for word, kind in _KEYWORDS if line.startswith(word)), None)
    return LexiconError(f"{f'malformed {kind}' if kind else 'unrecognized'} declaration '{line}'", lineno)


def _misnamed(kind: str, name: str, types: MappingProxyType[TypeName, object], lineno: int) -> LexiconError:
    """The error for a predicate or relation name that no LF text can use."""
    if not name.isascii():
        return LexiconError(f"{kind} '{name}' must be an ASCII identifier", lineno)
    if name in types:
        return LexiconError(f"{kind} '{name}' clashes with an ontology type", lineno)
    return LexiconError(f"{kind} 'and' is a reserved word of the LF syntax", lineno)
