"""Brute-force oracles and random generators backing the property tests.

Everything here recomputes expected results from first principles: ancestor
chains walked as plain lists, adjective orders judged by a direct monotone
simulation, the truth of a logical form found by trying every element of a
small finite model. None of it calls the package's own comparison or
rewriting logic, so agreement is evidence rather than tautology.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ontologik.logform import And, Atom, Form, Not, Implies, Quant, QuantKind, conj

# ----------------------------------------------------------------------
# subsumption oracles over a bare parent map {node: parent-or-None}
# ----------------------------------------------------------------------


def ancestor_chain(parent: dict[str, str | None], node: str) -> list[str]:
    chain = [node]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return chain


def oracle_subsumes(parent: dict[str, str | None], general: str, specific: str) -> bool:
    return general in ancestor_chain(parent, specific)


def oracle_compare(parent: dict[str, str | None], a: str, b: str) -> str:
    if a == b:
        return "equal"
    if oracle_subsumes(parent, a, b):
        return "first"
    if oracle_subsumes(parent, b, a):
        return "second"
    return "incomparable"


# ----------------------------------------------------------------------
# random trees
# ----------------------------------------------------------------------


def random_tree(rng: random.Random, max_nodes: int = 50) -> dict[str, str | None]:
    count = rng.randint(1, max_nodes)
    names = [f"t{i}" for i in range(count)]
    parent: dict[str, str | None] = {names[0]: None}
    for name in names[1:]:
        parent[name] = rng.choice(list(parent))
    return parent


def tree_source(parent: dict[str, str | None]) -> str:
    lines = []
    for name, up in parent.items():
        lines.append(f"type {name}" if up is None else f"type {name} isa {up}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# random logical forms over the reference lexicon vocabulary
# ----------------------------------------------------------------------

_UNARY = ("articulate", "loud", "beautiful", "red", "black")
_BINARY = ("want",)
_TYPES = (None, "entity", "physical", "living", "animal", "person", "omelet", "beer", "car", "raven")


def random_form(rng: random.Random, max_depth: int = 6) -> Form:
    serial = iter(range(1_000_000))

    def fresh() -> str:
        return f"v{next(serial)}"

    def atom(bound: list[str]) -> Form:
        if bound and len(_BINARY) and rng.random() < 0.25:
            return Atom(rng.choice(_BINARY), (rng.choice(bound), rng.choice(bound)))
        if bound and rng.random() < 0.9:
            return Atom(rng.choice(_UNARY), (rng.choice(bound),))
        return Atom(rng.choice(_UNARY), ("Julie",))

    def build(depth: int, bound: list[str]) -> Form:
        roll = rng.random()
        if depth <= 0:
            return atom(bound)
        if not bound or roll < 0.35:
            var = fresh()
            kind = rng.choice(list(QuantKind))
            return Quant(kind, var, rng.choice(_TYPES), build(depth - 1, bound + [var]))
        if roll < 0.50:
            return Not(build(depth - 1, bound))
        if roll < 0.70:
            return Implies(build(depth - 1, bound), build(depth - 1, bound))
        if roll < 0.85:
            return conj([build(depth - 1, bound) for _ in range(rng.randint(2, 3))])
        return atom(bound)

    var = fresh()
    kind = rng.choice(list(QuantKind))
    return Quant(kind, var, rng.choice(_TYPES), build(rng.randint(0, max_depth - 1), [var]))


_TYPE_NAMES = _TYPES[1:]


def random_liftable_form(rng: random.Random, max_depth: int = 2) -> Form:
    """Forms that reach membership lifting, which ``random_form`` never does.

    Type names stand as conjuncts under quantifier prefixes of mixed kinds,
    restricted or not, and as antecedents of implications under a universal.
    Contrapositives and double negations wrap some of them. Now and then a
    binder reuses the name of one in scope, the shadowing that only forms
    built through the API can have.
    """
    serial = iter(range(1_000_000))

    def membership(var: str) -> Form:
        return Atom(rng.choice(_TYPE_NAMES), (var,))

    def plain(bound: list[str]) -> Form:
        roll = rng.random()
        if roll < 0.2:
            return Atom(rng.choice(_BINARY + ("EATING",)), (rng.choice(bound), rng.choice(bound)))
        if roll < 0.9:
            return Atom(rng.choice(_UNARY), (rng.choice(bound),))
        return Atom(rng.choice(_UNARY), ("Julie",))

    def literal(depth: int, bound: list[str]) -> Form:
        roll = rng.random()
        if roll < 0.35:
            return membership(rng.choice(bound))
        if depth > 0 and roll < 0.55:
            return prefixed(depth - 1, bound)
        if roll < 0.65:
            return Not(Not(literal(depth, bound)))
        atom = plain(bound)
        return Not(atom) if rng.random() < 0.2 else atom

    def prefixed(depth: int, bound: list[str]) -> Form:
        prefix = []
        for _ in range(rng.randint(1, 3)):
            if bound and rng.random() < 0.1:
                var = rng.choice(bound)
            else:
                var = f"v{next(serial)}"
            vtype = rng.choice(_TYPE_NAMES) if rng.random() < 0.3 else None
            prefix.append((rng.choice(list(QuantKind)), var, vtype))
            bound = bound + [var]
        if rng.random() < 0.35:
            # (A x)(T(x) -> ...), or its contrapositive (A x)((! ...) -> (! T(x)))
            var = prefix[-1][1]
            if rng.random() < 0.7:
                prefix[-1] = (QuantKind.FORALL, var, None)
            antecedent = membership(var)
            consequent = conj([literal(depth, bound) for _ in range(rng.randint(1, 2))])
            if rng.random() < 0.3:
                matrix: Form = Implies(Not(consequent), Not(antecedent))
            else:
                matrix = Implies(antecedent, consequent)
        else:
            matrix = conj([literal(depth, bound) for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.1:
            matrix = Not(Not(matrix))
        for kind, var, vtype in reversed(prefix):
            matrix = Quant(kind, var, vtype, matrix)
        return matrix

    return prefixed(rng.randint(0, max_depth), [])


# ----------------------------------------------------------------------
# finite-model oracle: brute-force truth of a form
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A finite interpretation. Elements are ``0 .. size-1``; each has one
    type and belongs to every type above it. A type with no element below it
    is empty. ``extension`` holds the argument tuples each predicate is true
    of; type names never appear in it."""

    size: int
    members: dict[str, frozenset[int]]
    extension: dict[str, frozenset[tuple[int, ...]]]
    constants: dict[str, int]


def random_model(
    rng: random.Random,
    parent: dict[str, str | None],
    arities: dict[str, int],
    constants: tuple[str, ...] = ("Julie",),
) -> Model:
    size = rng.randint(1, 4)
    own = [rng.choice(list(parent)) for _ in range(size)]
    members: dict[str, set[int]] = {t: set() for t in parent}
    for element, t in enumerate(own):
        for up in ancestor_chain(parent, t):
            members[up].add(element)
    extension = {
        pred: frozenset(
            args
            for args in itertools.product(range(size), repeat=arity)
            if rng.random() < 0.5
        )
        for pred, arity in arities.items()
    }
    return Model(
        size,
        {t: frozenset(m) for t, m in members.items()},
        extension,
        {c: rng.randrange(size) for c in constants},
    )


def holds(form: Form, model: Model, env: dict[str, int] | None = None) -> bool:
    """Whether ``form`` is true in ``model`` under the variable assignment
    ``env``. A type name in predicate position is read as membership."""
    env = env or {}
    match form:
        case Atom(pred, args):
            elements = tuple(env[a] if a in env else model.constants[a] for a in args)
            if pred in model.members:
                return len(elements) == 1 and elements[0] in model.members[pred]
            return elements in model.extension[pred]
        case Not(item):
            return not holds(item, model, env)
        case And(items):
            return all(holds(i, model, env) for i in items)
        case Implies(a, c):
            return not holds(a, model, env) or holds(c, model, env)
        case Quant(kind, var, vtype, body):
            scope = range(model.size) if vtype is None else sorted(model.members[vtype])
            truths = (holds(body, model, {**env, var: d}) for d in scope)
            if kind is QuantKind.EXISTS:
                return any(truths)
            if kind is QuantKind.FORALL:
                return all(truths)
            return list(itertools.islice(filter(None, truths), 2)) == [True]
    raise TypeError(f"not a form: {form!r}")


# ----------------------------------------------------------------------
# adjective-order oracle: direct monotone-expectation simulation
# ----------------------------------------------------------------------


def oracle_order(
    parent: dict[str, str | None], expectations: list[str], noun: str
) -> tuple:
    """Judge an order given the expected type of each adjective position,
    outermost first, over a lexicon with no salient relations. The running
    type starts at the noun and, scanning from the innermost position
    outward, may only step to equal-or-more-general expectations."""
    running = noun
    chain = [noun]
    for i in range(len(expectations) - 1, -1, -1):
        expected = expectations[i]
        if oracle_subsumes(parent, expected, running):
            running = expected
        elif oracle_subsumes(parent, running, expected):
            return ("violation", i, expected, running)
        else:
            return ("type_failure", i)
        chain.append(running)
    return ("accepted", tuple(chain))
