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

Analysis is one post-order walk over the canonical form, which reads the
atoms of a conjunction in its loop, with no call per atom. A quantifier
prefix binds its variables in the walk's one scope, walks its matrix, which
records what they are expected to be (an atom's argument types are one read
of ``Lexicon.arg_types``), and restores what they shadowed. Then it folds
each binder, naming relata as it goes (an inner prefix first), and builds
the typed prefix with its bridges only if a type changed or a bridge was
added. Trace lines are held back so that binders come in binding order, then
constants in occurrence order; a read error raises where it is met, a failed
fold only after the walk. A bridge deepens a matrix only after it is walked,
so levels are counted bottom up. Texts are printed through the one printer
of :mod:`ontologik.logform`, which records each level-0 text in the call's
memo, canonicalization's sort included; an unchanged subtree is the
canonical node itself, so each conjunct is printed once. Outcomes, traces
and results are immutable slotted classes.
"""
from __future__ import annotations

from itertools import chain

from ._value import Value, setters
from .errors import LexiconError, NestingError, TypeCheckError
from .lexicon import Lexicon
from .logform import (
    And,
    Atom,
    Form,
    Implies,
    MAX_NESTING,
    Not,
    Quant,
    QuantKind,
    _print,
    canonicalize,
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


class Coerced(Value):
    """An incomparable pair bridged by a salient relation."""

    __slots__ = ("result", "relation", "relatum_type")


class Failed(Value):
    """No subsumption and no salient relation applies."""

    __slots__ = ("left", "right")


UnificationOutcome = Unified | Coerced | Failed


class TraceStep(Value):
    """One recorded inference. ``subject`` is the variable or constant concerned."""

    __slots__ = ("op", "subject", "detail", "outcome")


class DerivationTrace(Value):
    """Ordered record of how an analysis reached its conclusion."""

    __slots__ = ("steps",)
    __hash__ = None  # the steps are a list, so hash() names the record

    def __init__(self, steps: list[TraceStep] | None = None):
        _trace_steps(self, [] if steps is None else steps)

    def add(self, op: str, subject: str | None, detail: str, outcome: str):
        self.steps.append(TraceStep(op, subject, detail, outcome))


class AnalyzedForm(Value):
    """A fully typed form plus the reasoning that produced it; ``text`` is
    ``pretty(form)``."""

    __slots__ = ("form", "trace", "missing_text", "text")
    __hash__ = None  # the trace and missing_text are mutable, so hash() names the record


[_trace_steps] = setters(DerivationTrace)
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
    verdict = ont.compare(first, second)
    if verdict is not SubsumptionVerdict.INCOMPARABLE:
        return Unified(second if verdict is SubsumptionVerdict.FIRST_SUBSUMES_SECOND else first)
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
    kind = type(outcome)
    if kind is Unified:
        return outcome.result
    if kind is Coerced:
        result = outcome.result
        return f"coerced: {result} via {outcome.relation.name}({result}, {outcome.relatum_type})"
    return f"failed: {outcome.left} vs {outcome.right}"


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
    steps, coercion = trace.steps, None
    lefts = reversed(expectations)
    acc = next(lefts)
    for left in chain(lefts, (declared,)):  # the declared type is the outermost combination of all
        outcome = unify_types(ont, lex, left, acc)
        kind = type(outcome)
        if kind is Coerced and coercion is not None:
            outcome, kind = Failed(left, acc), Failed  # one coercion per variable, no more
        steps.append(TraceStep("unify", subject, _pair(left, acc), _describe(outcome)))
        if kind is Failed:
            return outcome, trace
        if kind is Coerced:
            coercion = outcome
        acc = outcome.result
    if coercion is not None:
        return Coerced(acc, coercion.relation, coercion.relatum_type), trace
    return Unified(acc), trace


# ----------------------------------------------------------------------
# whole-form analysis
# ----------------------------------------------------------------------


def analyze(form: Form, ont: Ontology, lex: Lexicon) -> AnalyzedForm:
    """Canonicalize, type every variable and constant, and surface missing text.

    Raises :class:`TypeCheckError` when some type can meet none of its
    expectations, even by coercion, and :class:`NestingError` when the form,
    or the typed form with its bridges, nests deeper than ``MAX_NESTING``.
    """
    trace = DerivationTrace()
    memo: dict = {}  # the texts printed from level 0 for this call, see logform._print
    cf = canonicalize(form, ont, lex, memo)
    # The input shares no node with cf: with a memo of its own, it is freed on return.
    trace.add("canonicalize", None, _print(form, {}, 0), _print(cf, memo, 0))
    typed, height, binders, const_slots = _walk(cf, ont, lex, memo)

    # The first failing binder in binding order fails the form, and only
    # then are constants checked: plain comparability, in occurrence order.
    for var, outcome, steps, _ in binders:
        if isinstance(outcome, Failed):
            raise TypeCheckError(var, outcome.left, outcome.right)
        trace.steps.extend(steps)
    for const, expectation in const_slots:
        declared = lex.names[const].declared_type
        outcome = unify_types(ont, lex, declared, expectation)
        trace.add("unify", const, _pair(declared, expectation), _describe(outcome))
        if not isinstance(outcome, Unified):
            raise TypeCheckError(const, declared, expectation)
    if height > MAX_NESTING:
        raise NestingError()
    glosses = [gloss for *_, gloss in binders if gloss is not None]
    return AnalyzedForm(typed, trace, glosses, _print(typed, memo, 0))


def _walk(cf: Form, ont: Ontology, lex: Lexicon, memo: dict) -> tuple[Form, int, list, list]:
    # One post-order walk that types ``cf``. It returns the typed form, its
    # height in levels counted as in _canon, each binder in binding order as
    # (variable, outcome, trace steps, gloss or None), and each constant slot
    # in occurrence order as (constant, expectation). A read error is raised
    # where it is met; a fold failure waits for analyze.
    binders: list = []
    const_slots: list[tuple[str, TypeName]] = []
    # (outcome, trace steps), folded once per declared type and expectations:
    # a later binder repeats the steps under its own name.
    folds: dict[tuple[TypeName, ...], tuple[UnificationOutcome, list[TraceStep]]] = {}
    used: set[str] = set()  # every name in ``cf``, read at the first bridge
    scope: dict[str, tuple[list, list]] = {}
    arg_types, names, root = lex.arg_types, lex.names, ont.root

    # ``walk`` returns ``items`` typed (``items`` itself if none changed) and
    # the greatest height among them in levels, counted as in _canon; an atom
    # has none. ``scope`` maps a variable to the expectations and adjectives of
    # its binder, or to None out of scope. ``positive`` is the polarity of
    # ``items``: only a unary predicate asserted of a referent, not one denied
    # of it, belongs in its gloss.
    def walk(items: tuple | list, positive: bool) -> tuple:
        out, changed, top = [], False, 0
        for f in items:
            if isinstance(f, Atom):
                types = arg_types[f.pred]  # canonicalize has already vetted the predicate
                if len(types) != len(f.args):
                    raise LexiconError(f"'{f.pred}' expects {len(types)} argument(s), got {len(f.args)}")
                for expectation, arg in zip(types, f.args):
                    slots = scope.get(arg)
                    if slots is not None:
                        slots[0].append(expectation)
                        if positive and len(types) == 1:
                            slots[1].append(f.pred)
                    elif arg in names:
                        const_slots.append((arg, expectation))
                    else:
                        raise LexiconError(f"unknown constant '{arg}'")
                out.append(f)
                continue
            t = f  # ``f`` typed
            if isinstance(f, Quant):
                matrix, own, at = f, [], len(binders)
                while isinstance(matrix, Quant):
                    var, declared = matrix.var, matrix.vtype
                    if declared is None:
                        declared = names[var].declared_type if var in names else root
                    ont.require(declared)
                    own.append((matrix, declared, scope.get(var), slots := ([], [])))
                    scope[var] = slots
                    matrix = matrix.body
                binders.extend([None] * len(own))  # filled in below, so that they keep binding order
                inner = matrix.items if isinstance(matrix, And) else (matrix,)
                walked, height = walk(inner, positive)
                for q, _, shadowed, _ in reversed(own):  # an API-built prefix may bind a name twice
                    scope[q.var] = shadowed
                # Each coerced binder gets a relatum binder right below it,
                # named apart from every name in the form, and its bridge
                # joins the matrix, next to the predications it explains.
                typed, bridges, retyped = [], [], False
                for q, declared, _, (expectations, adjectives) in own:
                    var = q.var
                    if not expectations:
                        outcome, steps = Unified(declared), [TraceStep("type", var, var, declared)]
                    elif (hit := folds.get(key := (declared, *expectations))) is None:
                        outcome, sub = fold_expectations(ont, lex, declared, expectations[::-1], subject=var)
                        outcome, steps = folds[key] = outcome, sub.steps
                    elif len(hit[1]) == 1:
                        outcome, (s,) = hit
                        steps = [TraceStep(s.op, var, s.detail, s.outcome)]
                    else:
                        outcome, steps = hit[0], [TraceStep(s.op, var, s.detail, s.outcome) for s in hit[1]]
                    final = declared if isinstance(outcome, Failed) else outcome.result
                    typed.append((q.kind, var, final))
                    retyped = retyped or final != q.vtype
                    gloss = None
                    if isinstance(outcome, Coerced):
                        if not used:
                            used.update(_names(cf))
                        n = 2
                        while f"{var}{n}" in used:
                            n += 1
                        used.add(fresh := f"{var}{n}")
                        rel, relatum = outcome.relation.name, outcome.relatum_type
                        typed.append((QuantKind.EXISTS, fresh, relatum))
                        bridges.append(Atom(rel, (var, fresh)))
                        gloss = f"some {' '.join([*adjectives, final])} {rel.lower()} the {relatum}"
                    binders[at] = var, outcome, steps, gloss
                    at += 1
                # a bridge can turn the matrix into a conjunction, a level deeper
                height += 2 if len(inner) + len(bridges) > 1 else 1
                # sorting prints down to recorded texts only: past the cap, analyze raises
                if bridges or walked is not inner:
                    t = with_prefix(typed, sorted_conj([*walked, *bridges], memo))
                elif retyped:
                    t = with_prefix(typed, matrix)
            elif isinstance(f, And):
                walked, height = walk(f.items, positive)
                height += 1
                if walked is not f.items:
                    t = sorted_conj(walked, memo)
            elif isinstance(f, Implies):
                (a,), left = walk((f.antecedent,), not positive)
                (c,), height = walk((f.consequent,), positive)
                height = (left if left > height else height) + 1
                if a is not f.antecedent or c is not f.consequent:
                    t = Implies(a, c)
            else:  # a Not: canonicalize has vetted every node
                (item,), height = walk((f.item,), not positive)
                height += 1
                if item is not f.item:
                    t = Not(item)
            top = height if height > top else top
            changed = changed or t is not f
            out.append(t)
        return (out if changed else items), top

    (typed,), height = walk((cf,), True)
    return typed, height, binders, const_slots


def _names(cf: Form) -> set[str]:
    # Every bound variable and every atom argument of ``cf``.
    names, stack = set(), [cf]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            names.update(f.args)
        elif isinstance(f, Quant):
            names.add(f.var)
            stack.append(f.body)
        elif isinstance(f, And):
            stack.extend(f.items)
        elif isinstance(f, Not):
            stack.append(f.item)
        else:
            stack += (f.antecedent, f.consequent)
    return names
