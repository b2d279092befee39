"""Type unification, expectation folding, and whole-form analysis.

Unifying two types picks the more specific one when they are comparable:
casting up the tree is always sound, so the tighter type simply wins. When
the types are incomparable the engine consults the lexicon's salient
relations for a metonymic bridge: unifying omelet with person through
EATING(person, food) re-types the referent as the person and leaves the
omelet as the thing eaten. That bridge is exactly where missing text enters
a form, so each coercion also yields an English gloss of what was elided.

Analysis applies this across a whole logical form. Every bound variable
starts from its declared type (restriction, or the proper-name declaration,
or the root when nothing is said) and folds in the expectation of every
argument slot it occupies, innermost first. A variable gets at most one
coercion; a second incomparable expectation is a hard failure rather than a
second guess. The fold depends only on the declared type and the
expectations, so each distinct pair of them is folded once per analysis, and
binders that share a pair repeat its derivation lines under their own name.

Analysis prints through the one printer of :mod:`ontologik.logform`, with
the texts canonicalization sorted by kept for the call: each conjunct is
printed once, as the typed form's unchanged subtrees are the canonical
nodes themselves. Outcomes, traces and results are immutable slotted
classes, not dataclasses.
"""
from __future__ import annotations

from operator import is_

from ._value import Value, _set
from .errors import LexiconError, TypeCheckError
from .lexicon import Lexicon, SalientRelation
from .logform import (
    And,
    Atom,
    CanonicalForm,
    Form,
    Implies,
    Not,
    Quant,
    QuantKind,
    _print,
    canonicalize,
    deeper,
    read_prefix,
    sorted_conj,
    with_prefix,
)
from .ontology import Ontology, SubsumptionVerdict, TypeName

# ----------------------------------------------------------------------
# outcomes and traces
# ----------------------------------------------------------------------


class Unified(Value):
    """The types were comparable; ``result`` is the more specific."""

    __slots__ = ("result",)

    def __init__(self, result: TypeName):
        _set(self, "result", result)


class Coerced(Value):
    """An incomparable pair bridged by a salient relation."""

    __slots__ = ("result", "relation", "relatum_type")

    def __init__(self, result: TypeName, relation: SalientRelation, relatum_type: TypeName):
        _set(self, "result", result)
        _set(self, "relation", relation)
        _set(self, "relatum_type", relatum_type)


class Failed(Value):
    """No subsumption and no salient relation applies."""

    __slots__ = ("left", "right")

    def __init__(self, left: TypeName, right: TypeName):
        _set(self, "left", left)
        _set(self, "right", right)


UnificationOutcome = Unified | Coerced | Failed


class TraceStep(Value):
    """One recorded inference. ``subject`` is the variable or constant concerned."""

    __slots__ = ("op", "subject", "detail", "outcome")

    def __init__(self, op: str, subject: str | None, detail: str, outcome: str):
        _set(self, "op", op)
        _set(self, "subject", subject)
        _set(self, "detail", detail)
        _set(self, "outcome", outcome)


class DerivationTrace(Value):
    """Ordered record of how an analysis reached its conclusion."""

    __slots__ = ("steps",)
    __hash__ = None  # the steps are a list, so hash() names the record

    def __init__(self, steps: list[TraceStep] | None = None):
        _set(self, "steps", [] if steps is None else steps)

    def add(self, op: str, subject: str | None, detail: str, outcome: str):
        self.steps.append(TraceStep(op, subject, detail, outcome))


class AnalyzedForm(Value):
    """A fully typed form plus the reasoning that produced it; ``text`` is
    ``pretty(form)``."""

    __slots__ = ("form", "trace", "missing_text", "text")
    __hash__ = None  # the trace and missing_text are mutable, so hash() names the record

    def __init__(self, form: CanonicalForm, trace: DerivationTrace, missing_text: list[str], text: str):
        _set(self, "form", form)
        _set(self, "trace", trace)
        _set(self, "missing_text", missing_text)
        _set(self, "text", text)


# ----------------------------------------------------------------------
# pairwise unification
# ----------------------------------------------------------------------


def unify_types(
    ont: Ontology, lex: Lexicon, first: TypeName, second: TypeName
) -> UnificationOutcome:
    """Unify two types: specific-wins on comparables, coercion otherwise.

    The primary coercion orientation treats ``second`` as the expectation to
    meet and ``first`` as the source being reconciled; the mirrored
    orientation is tried next so the operation stays commutative up to the
    roles in the outcome.
    """
    ont.require(first)
    ont.require(second)
    match ont.compare(first, second):
        case SubsumptionVerdict.EQUAL:
            return Unified(first)
        case SubsumptionVerdict.FIRST_SUBSUMES_SECOND:
            return Unified(second)
        case SubsumptionVerdict.SECOND_SUBSUMES_FIRST:
            return Unified(first)
    for target, source in ((second, first), (first, second)):
        candidates = lex.coercion_candidates(ont, target, source)
        if candidates:
            rel = candidates[0]
            refined = (
                target if ont.subsumes(rel.domain_type, target) else rel.domain_type
            )
            return Coerced(refined, rel, source)
    return Failed(first, second)


def _pair(left: TypeName, right: TypeName) -> str:
    return f"({left} • {right})"


def _describe(outcome: UnificationOutcome) -> str:
    match outcome:
        case Unified(result):
            return result
        case Coerced(result, rel, relatum):
            return f"coerced: {result} via {rel.name}({result}, {relatum})"
        case Failed(left, right):
            return f"failed: {left} vs {right}"
    raise TypeError(f"not an outcome: {outcome!r}")


def fold_expectations(
    ont: Ontology,
    lex: Lexicon,
    declared: TypeName,
    expectations: list[TypeName],
    subject: str | None = None,
) -> tuple[UnificationOutcome, DerivationTrace]:
    """Fold a declared type with every expectation placed on it.

    Expectations fold right to left (the last pair is innermost and goes
    first), and the declared type joins the folded result at the end. At
    most one coercion may occur along the way; hitting a second incomparable
    pair fails with that pair identified.
    """
    if not expectations:
        raise ValueError("fold_expectations needs at least one expectation")
    trace = DerivationTrace()
    coercion: Coerced | None = None
    acc = expectations[-1]
    pending = list(expectations[:-1])
    # the declared type is the outermost combination of all
    for left in reversed([declared] + pending):
        outcome = unify_types(ont, lex, left, acc)
        if isinstance(outcome, Coerced) and coercion is not None:
            outcome = Failed(left, acc)  # one coercion per variable, no more
        trace.add("unify", subject, _pair(left, acc), _describe(outcome))
        match outcome:
            case Unified(result):
                acc = result
            case Coerced(result, _, _):
                coercion = outcome
                acc = result
            case Failed(_, _):
                return outcome, trace
    if coercion is not None:
        return Coerced(acc, coercion.relation, coercion.relatum_type), trace
    return Unified(acc), trace


# ----------------------------------------------------------------------
# whole-form analysis
# ----------------------------------------------------------------------


class _Binder:
    __slots__ = ("var", "declared", "expectations", "adjectives", "final", "coercion")

    def __init__(self, var: str, declared: TypeName):
        self.var, self.declared, self.final = var, declared, ""
        self.expectations, self.adjectives, self.coercion = [], [], None


def analyze(form: Form, ont: Ontology, lex: Lexicon) -> AnalyzedForm:
    """Canonicalize, type every variable and constant, and surface missing text.

    Raises :class:`TypeCheckError` when some type can meet none of its
    expectations, even by coercion, and :class:`NestingError` when the form,
    or the typed form with its bridges, nests deeper than ``MAX_NESTING``.
    """
    trace = DerivationTrace()
    memo: dict = {}  # the texts printed for this call, see logform.sorted_conj
    cf = canonicalize(form, ont, lex, memo)
    trace.add("canonicalize", None, _print(form, memo, 0), _print(cf, memo, 0))

    binders, const_slots = _collect(cf, ont, lex)

    # Variables, in binding order; a binder whose declared type and
    # expectations were folded already repeats those steps under its name.
    folds: dict[tuple[TypeName, ...], tuple[UnificationOutcome, list[TraceStep]]] = {}
    for b in binders.values():
        if not b.expectations:
            b.final = b.declared
            trace.add("type", b.var, b.var, b.declared)
            continue
        key = (b.declared, *b.expectations)
        hit = folds.get(key)
        if hit is not None:
            outcome, steps = hit
            trace.steps.extend([TraceStep(s.op, b.var, s.detail, s.outcome) for s in steps])
        else:
            outcome, sub = fold_expectations(
                ont, lex, b.declared, b.expectations[::-1], subject=b.var
            )
            folds[key] = outcome, sub.steps
            trace.steps.extend(sub.steps)
        match outcome:
            case Unified(result):
                b.final = result
            case Coerced(result, _, _):
                b.final = result
                b.coercion = outcome
            case Failed(left, right):
                raise TypeCheckError(b.var, left, right)

    # Constants, in occurrence order: plain comparability only.
    for const, expectation in const_slots:
        declared = lex.names[const].declared_type
        outcome = unify_types(ont, lex, declared, expectation)
        trace.add("unify", const, _pair(declared, expectation), _describe(outcome))
        if not isinstance(outcome, Unified):
            raise TypeCheckError(const, declared, expectation)

    used = {b.var for b in binders.values()} | {c for c, _ in const_slots}
    typed = _rebuild(cf, binders, used, memo)
    glosses = [
        _gloss(b) for b in binders.values() if b.coercion is not None
    ]
    return AnalyzedForm(typed, trace, glosses, _print(typed, memo, 0))


# -- collection --------------------------------------------------------


def _collect(
    cf: Form, ont: Ontology, lex: Lexicon
) -> tuple[dict[int, _Binder], list[tuple[str, TypeName]]]:
    binders: dict[int, _Binder] = {}
    const_slots: list[tuple[str, TypeName]] = []
    counter = iter(range(1 << 30))

    # ``positive`` is the polarity of ``f``: only a unary predicate asserted
    # of a referent, not one denied of it, belongs in that referent's gloss.
    def walk(f: Form, scope: dict[str, int], positive: bool):
        match f:
            case Quant():
                prefix, body = read_prefix(f)
                scope = dict(scope)
                for _, var, vtype in prefix:
                    declared = vtype
                    if declared is None and var in lex.names:
                        declared = lex.names[var].declared_type
                    if declared is None:
                        declared = ont.root
                    ont.require(declared)
                    scope[var] = ident = next(counter)
                    binders[ident] = _Binder(var, declared)
                walk(body, scope, positive)
            case Atom(pred, args):
                sig = lex.atom_signature(pred)  # canonicalize has already vetted preds
                assert sig is not None
                if sig.arity != len(args):
                    raise LexiconError(
                        f"'{pred}' expects {sig.arity} argument(s), got {len(args)}"
                    )
                for slot, arg in enumerate(args):
                    expectation = sig.arg_types[slot]
                    if arg in scope:
                        b = binders[scope[arg]]
                        b.expectations.append(expectation)
                        if sig.arity == 1 and positive:
                            b.adjectives.append(pred)
                    else:
                        if arg not in lex.names:
                            raise LexiconError(f"unknown constant '{arg}'")
                        const_slots.append((arg, expectation))
            case And(items):
                for i in items:
                    walk(i, scope, positive)
            case Not(item):
                walk(item, scope, not positive)
            case Implies(a, c):
                walk(a, scope, not positive)
                walk(c, scope, positive)

    walk(cf, {}, True)
    return binders, const_slots


# -- reconstruction ----------------------------------------------------


def _rebuild(cf: Form, binders: dict[int, _Binder], used: set[str], memo: dict) -> Form:
    # Each binder takes its final type. A coerced binder gets a relatum
    # binder, with a name not in ``used``, right below it, and the bridging
    # atom joins the matrix of the prefix, next to the predications it explains.
    # A subtree with no new type and no bridge is the canonical node itself,
    # so the texts ``memo`` holds for it are printed again, not rebuilt.
    counter = iter(range(1 << 30))

    # A bridge can turn a matrix into a conjunction, one level deeper than
    # the input had it, so the levels are counted again as in _canon.
    def walk(f: Form, depth: int) -> Form:
        match f:
            case Quant():
                prefix, matrix = read_prefix(f)
                inner = deeper(depth)
                typed, bridges = [], []
                for kind, var, _ in prefix:
                    b = binders[next(counter)]
                    typed.append((kind, var, b.final))
                    if b.coercion is not None:
                        fresh = _fresh_name(var, used)
                        used.add(fresh)
                        typed.append((QuantKind.EXISTS, fresh, b.coercion.relatum_type))
                        bridges.append(Atom(b.coercion.relation.name, (var, fresh)))
                items = matrix.items if isinstance(matrix, And) else (matrix,)
                if len(items) + len(bridges) > 1:
                    inner = deeper(inner)
                walked = [walk(i, inner) for i in items]
                if not bridges and all(map(is_, walked, items)):
                    return f if typed == prefix else with_prefix(typed, matrix)
                return with_prefix(typed, sorted_conj(walked + bridges, memo))
            case And(items):
                inner = deeper(depth)
                walked = [walk(i, inner) for i in items]
                return f if all(map(is_, walked, items)) else sorted_conj(walked, memo)
            case Not(item):
                inner = walk(item, deeper(depth))
                return f if inner is item else Not(inner)
            case Implies(a, c):
                inner = deeper(depth)
                a2, c2 = walk(a, inner), walk(c, inner)
                return f if a2 is a and c2 is c else Implies(a2, c2)
        return f

    return walk(cf, 0)


def _fresh_name(base: str, used: set[str]) -> str:
    n = 2
    while f"{base}{n}" in used:
        n += 1
    return f"{base}{n}"


def _gloss(b: _Binder) -> str:
    assert b.coercion is not None
    adjs = " ".join(b.adjectives)
    noun = f"{adjs} {b.final}" if adjs else b.final
    return (
        f"some {noun} {b.coercion.relation.name.lower()} the {b.coercion.relatum_type}"
    )
