"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain text for the
package to read together with the result the package must produce. The
expected results follow from how each input is built (a chain index gives
subsumption, the generator places every bridging relation), never from
running the package. This module imports nothing from ``ontologik`` or from
the test suite, so neither can shift the workloads.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# ----------------------------------------------------------------------
# type trees, as parent maps {name: parent-or-None} in declaration order
# ----------------------------------------------------------------------


def chain(parent: dict[str, str | None], top: str, length: int, prefix: str) -> list[str]:
    """Hang a chain of ``length`` types below ``top``; returns it top-down."""
    names = []
    up = top
    for i in range(1, length + 1):
        name = f"{prefix}{i:04d}"
        parent[name] = up
        names.append(name)
        up = name
    return names


def broom(
    parent: dict[str, str | None], top: str, handle: int, bristles: int, prefix: str
) -> tuple[list[str], list[str]]:
    """A chain of ``handle`` types with ``bristles`` leaves on its last one."""
    stick = chain(parent, top, handle, prefix)
    leaves = []
    for i in range(bristles):
        name = f"{prefix}l{i:04d}"
        parent[name] = stick[-1]
        leaves.append(name)
    return stick, leaves


def bush(
    parent: dict[str, str | None], top: str, size: int, prefix: str, rnd: random.Random
) -> list[str]:
    """A random recursive tree: each new type picks a parent uniformly among
    ``top`` and the types of the bush declared before it."""
    names: list[str] = []
    for i in range(size):
        name = f"{prefix}{i:04d}"
        parent[name] = names[rnd.randrange(len(names))] if names and rnd.random() > 1 / (i + 1) else top
        names.append(name)
    return names


def ancestors(parent: dict[str, str | None], name: str) -> list[str]:
    out = [name]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])  # type: ignore[arg-type]
    return out


def ontology_text(parent: dict[str, str | None]) -> str:
    lines = []
    for name, up in parent.items():
        lines.append(f"type {name}" if up is None else f"type {name} isa {up}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the reference fixtures, restated by hand for the independent checks
# ----------------------------------------------------------------------

REF_PARENT: dict[str, str | None] = {
    "entity": None,
    "physical": "entity",
    "living": "physical",
    "animal": "living",
    "person": "animal",
    "bird": "living",
    "raven": "bird",
    "artifact": "physical",
    "car": "artifact",
    "ball": "artifact",
    "food": "physical",
    "omelet": "food",
    "beverage": "physical",
    "beer": "beverage",
}
# unary predicate -> the type its argument expects
REF_ADJECTIVES = {
    "articulate": "person",
    "loud": "person",
    "beautiful": "entity",
    "red": "physical",
    "black": "physical",
}
# the one salient relation: EATING(person, food)
REF_BRIDGE = ("EATING", "person", "food")


def ref_unify(first: str, second: str) -> str:
    """What ``ontologik unify first second`` prints on the reference fixtures:
    the more specific type when comparable, else the EATING bridge tried with
    ``second`` as the target first, then mirrored."""
    if second in ancestors(REF_PARENT, first):
        return f"Unified {first}"
    if first in ancestors(REF_PARENT, second):
        return f"Unified {second}"
    name, domain, rng = REF_BRIDGE
    for target, source in ((second, first), (first, second)):
        if _ref_comparable(domain, target) and _ref_comparable(rng, source):
            refined = target if domain in ancestors(REF_PARENT, target) else domain
            return f"Coerced {refined} via {name}({refined}, {source})"
    return "Failed"


def _ref_comparable(a: str, b: str) -> bool:
    return a in ancestors(REF_PARENT, b) or b in ancestors(REF_PARENT, a)


# ----------------------------------------------------------------------
# logical forms on the reference fixtures
# ----------------------------------------------------------------------

# Types and adjectives that unify without coercion: every type below is under
# physical, and each adjective expects physical or entity.
_PLAIN_TYPES = ("car", "ball", "raven", "beer", "omelet", "food", "animal", "artifact")
_PLAIN_ADJECTIVES = ("red", "black", "beautiful")


@dataclass(frozen=True)
class _Binder:
    var: str
    declared: str
    adjective: str

    @property
    def bridged(self) -> bool:
        # loud expects person; on an omelet only EATING(person, food) helps
        return self.declared == "omelet" and self.adjective == "loud"

    @property
    def final(self) -> str:
        return "person" if self.bridged else self.declared

    @property
    def fresh(self) -> str:
        return f"{self.var}2"

    def trace_line(self) -> str:
        expected = REF_ADJECTIVES[self.adjective]
        if self.bridged:
            return f"[{self.var}] (omelet • person) -> coerced: person via EATING(person, omelet)"
        return f"[{self.var}] ({self.declared} • {expected}) -> {self.declared}"

    def gloss(self) -> str:
        return "some loud person eating the omelet"


def _draw_binders(rnd: random.Random, count: int, bridge_share: float) -> list[_Binder]:
    """``count`` binders, exactly ``round(bridge_share * count)`` of them an
    omelet called loud; variables end in ``x`` so no fresh ``<var>2`` name can
    collide with another binder."""
    bridged = set(rnd.sample(range(count), round(bridge_share * count)))
    out = []
    for i in range(count):
        var = f"v{i}x"
        if i in bridged:
            out.append(_Binder(var, "omelet", "loud"))
        elif rnd.random() < 0.1:
            out.append(_Binder(var, "person", rnd.choice(("loud", "articulate"))))
        else:
            out.append(_Binder(var, rnd.choice(_PLAIN_TYPES), rnd.choice(_PLAIN_ADJECTIVES)))
    return out


def _matrix(atoms: list[str]) -> str:
    return "(and " + " ".join(f"({a})" for a in atoms) + ")"


def analysis_report(typed: str, source: str, canonical: str, trace: list[str], glosses: list[str]) -> str:
    """The text ``ontologik analyze`` prints for a form that types."""
    lines = [f"typed form: {typed}", "derivation:", f"  {source} -> {canonical}"]
    lines += [f"  {t}" for t in trace]
    lines.append("missing text:")
    lines += [f"  {g}" for g in glosses] or ["  no missing text detected"]
    return "\n".join(lines) + "\n"


def existential_prefix(rnd: random.Random, count: int, bridge_share: float) -> tuple[str, str]:
    """``(E v0x)...(E vNx)(and ...)``: one membership and one adjective atom
    per binder, shuffled. Returns the LF text and the analysis report.

    Canonicalization lifts each membership atom into its binder and sorts the
    matrix by printed form; analysis keeps the binder order, adds a fresh
    ``(E <var>2 :: omelet)`` after each bridged binder and an EATING atom to
    the matrix, then sorts the matrix again.
    """
    binders = _draw_binders(rnd, count, bridge_share)
    atoms = [f"{b.declared}({b.var})" for b in binders] + [f"{b.adjective}({b.var})" for b in binders]
    rnd.shuffle(atoms)
    source = "".join(f"(E {b.var})" for b in binders) + _matrix(atoms)

    adjectives = [f"{b.adjective}({b.var})" for b in binders]
    canonical = "".join(f"(E {b.var} :: {b.declared})" for b in binders) + _matrix(sorted(adjectives))
    prefix = []
    matrix = list(adjectives)
    for b in binders:
        prefix.append(f"(E {b.var} :: {b.final})")
        if b.bridged:
            prefix.append(f"(E {b.fresh} :: omelet)")
            matrix.append(f"EATING({b.var}, {b.fresh})")
    typed = "".join(prefix) + _matrix(sorted(matrix))
    trace = [b.trace_line() for b in binders]
    glosses = [b.gloss() for b in binders if b.bridged]
    return source, analysis_report(typed, source, canonical, trace, glosses)


def wide_conjunction(rnd: random.Random, count: int, bridge_share: float) -> tuple[str, str]:
    """``(and (E v0x)(and (T(v0x)) (adj(v0x))) ...)``: ``count`` one-binder
    conjuncts. Canonicalization lifts each type and sorts the conjuncts by
    printed form, which fixes the binder order analysis reports in; the typed
    conjuncts are sorted again after bridging."""
    binders = _draw_binders(rnd, count, bridge_share)

    def conjunct(b: _Binder, kind: str) -> str:
        if kind == "source":
            pair = [f"{b.declared}({b.var})", f"{b.adjective}({b.var})"]
            rnd.shuffle(pair)
            return f"(E {b.var})" + _matrix(pair)
        if kind == "canonical":
            return f"(E {b.var} :: {b.declared})({b.adjective}({b.var}))"
        if b.bridged:
            inner = _matrix(sorted([f"EATING({b.var}, {b.fresh})", f"{b.adjective}({b.var})"]))
            return f"(E {b.var} :: person)(E {b.fresh} :: omelet)" + inner
        return f"(E {b.var} :: {b.final})({b.adjective}({b.var}))"

    source = "(and " + " ".join(conjunct(b, "source") for b in binders) + ")"
    ordered = sorted(binders, key=lambda b: conjunct(b, "canonical"))
    canonical = "(and " + " ".join(conjunct(b, "canonical") for b in ordered) + ")"
    typed = "(and " + " ".join(sorted(conjunct(b, "typed") for b in binders)) + ")"
    trace = [b.trace_line() for b in ordered]
    glosses = [b.gloss() for b in ordered if b.bridged]
    return source, analysis_report(typed, source, canonical, trace, glosses)


# ----------------------------------------------------------------------
# a large ontology and lexicon, with small operations against them
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LargeResources:
    ontology: str
    lexicon: str
    ops: list[tuple[str, tuple, str]]  # (kind, arguments, expected report)


def relation_set(
    rnd: random.Random, types: list[str], count: int, prefix: str, avoid: set[tuple[str, str]]
) -> list[tuple[str, str, str]]:
    """``count`` relations whose domains, and separately whose ranges, are
    spread evenly over ``types`` from a seeded offset and paired at random,
    so every seed puts the same share of them at each depth. No relation
    lands on a (domain, range) pair in ``avoid``."""

    def spread() -> list[str]:
        step = len(types) / count
        offset = rnd.random() * step
        picks = [types[int(offset + k * step)] for k in range(count)]
        rnd.shuffle(picks)
        return picks

    domains, ranges = spread(), spread()
    while any(pair in avoid for pair in zip(domains, ranges)):
        rnd.shuffle(ranges)
    return [(f"{prefix}{k:04d}", d, r) for k, (d, r) in enumerate(zip(domains, ranges))]


def large_ontology(
    rnd: random.Random,
    handle: int,
    bristles: int,
    bush_size: int,
    relations: int,
    op_pairs: int,
    folds: int,
    depth_band: tuple[int, int],
) -> LargeResources:
    """A broom (a chain with leaves at its end) and a random bush under one
    root, a lexicon of ``relations`` salient relations plus unary and binary
    predicates, and ``2 * op_pairs`` operations, half ``analyze`` and half
    ``check_order``.

    Every operation carries ``folds + 1`` comparable folds and one coerced
    fold, so no operation is much cheaper or dearer than another.
    Operation ``i`` commits a referent declared as a bush type ``Y`` to chain
    types at depth ``d`` and above, with ``d`` spread evenly over
    ``depth_band``. Chain types are pairwise comparable and incomparable with
    the bush, so the chain side folds to its deepest type ``a``, and ``Y``
    meets ``a`` only through the relation ``B<i>(a, Y)`` placed for it. No
    other relation has that exact (domain, range) pair, so it is the first
    candidate.
    """
    parent: dict[str, str | None] = {"top": None}
    stick, _ = broom(parent, "top", handle, bristles, "c")
    shrub = bush(parent, "top", bush_size, "b", rnd)
    types = list(parent)
    lo, hi = depth_band

    unary: list[tuple[str, str]] = []  # (predicate, expected type)
    rels: list[tuple[str, str, str]] = []  # (name, domain, range)
    plans = []

    def predicates(depths: list[int]) -> list[tuple[str, str]]:
        out = [(f"p{len(unary) + j:04d}", stick[d - 1]) for j, d in enumerate(depths)]
        unary.extend(out)
        return out

    for i in range(op_pairs):
        depth = lo + (hi - lo) * i // max(op_pairs - 1, 1)
        # the analyze form's x gets `folds` unary predicates on chain types at
        # depth d and strictly above; the adjective list adds two shallower
        # ones, matching the fold of the analyze form's second referent and
        # of its link atom L<i>(x, y)
        below = sorted(rnd.sample(range(depth // 2, depth), folds - 1), reverse=True)
        preds = predicates([depth] + below)
        extras = predicates(sorted(rnd.sample(range(1, depth // 2), 2), reverse=True))
        declared = rnd.choice(shrub)
        other = rnd.choice(shrub)
        bridge = (f"B{i:04d}", stick[depth - 1], declared)
        link = (f"L{i:04d}", stick[rnd.randrange(depth // 2)], rnd.choice(ancestors(parent, other)[:-1]))
        rels += [bridge, link]
        plans.append((declared, other, bridge, link, preds, extras))

    avoid = {(r[1], r[2]) for r in rels}
    rels += relation_set(rnd, types, relations - len(rels), "R", avoid)
    rnd.shuffle(rels)  # priority is declaration order; spread the placed ones
    for _ in range(len(unary), 400):
        unary.append((f"p{len(unary):04d}", rnd.choice(stick[len(stick) // 4 :])))
    binary = [(f"q{i:04d}", rnd.choice(types), rnd.choice(types)) for i in range(100)]

    lex_lines = [f"pred {p}({t})" for p, t in unary]
    lex_lines += [f"pred {p}({a}, {b})" for p, a, b in binary]
    lex_lines += [f"rel {n}({d}, {r})" for n, d, r in rels]

    ops = []
    for declared, other, bridge, link, preds, extras in plans:
        ops.append(_analyze_op(parent, declared, other, bridge, link, preds))
        ops.append(_order_op(declared, bridge, preds + extras))
    return LargeResources(ontology_text(parent), "\n".join(lex_lines) + "\n", ops)


def _analyze_op(parent, declared, other, bridge, link, preds):
    """``(E x)(E y)(and (Y(x)) (Z(y)) (p..(x))... (L(x, y)))``."""
    atoms = [f"{declared}(x)", f"{other}(y)"] + [f"{p}(x)" for p, _ in preds] + [f"{link[0]}(x, y)"]
    source = "(E x)(E y)" + _matrix(atoms)
    rest = sorted([f"{p}(x)" for p, _ in preds] + [f"{link[0]}(x, y)"])
    canonical = f"(E x :: {declared})(E y :: {other})" + _matrix(rest)

    # x folds its expectations in matrix order, then meets its declared type
    expect = {f"{p}(x)": t for p, t in preds}
    expect[f"{link[0]}(x, y)"] = link[1]
    depth = {t: len(ancestors(parent, t)) for t in expect.values()}
    acc = expect[rest[0]]
    trace = []
    for atom in rest[1:]:
        left = expect[atom]
        result = left if depth[left] >= depth[acc] else acc
        trace.append(f"[x] ({left} • {acc}) -> {result}")
        acc = result
    deepest = acc
    trace.append(f"[x] ({declared} • {deepest}) -> coerced: {deepest} via {bridge[0]}({deepest}, {declared})")
    trace.append(f"[y] ({other} • {link[2]}) -> {other}")

    typed_matrix = sorted(rest + [f"{bridge[0]}(x, x2)"])
    typed = f"(E x :: {deepest})(E x2 :: {declared})(E y :: {other})" + _matrix(typed_matrix)
    adjectives = " ".join(a.split("(")[0] for a in rest if a.endswith("(x)"))
    gloss = f"some {adjectives} {deepest} {bridge[0].lower()} the {declared}"
    return ("analyze", ("@lf: " + source,), analysis_report(typed, source, canonical, trace, [gloss]))


def _order_op(declared, bridge, preds):
    """Adjectives written outermost first, innermost the deepest: the
    innermost is bridged onto the noun, each outer one generalizes."""
    written = [p for p, _ in reversed(preds)]
    running = [declared] + [t for _, t in preds]
    report = "Accepted: " + " -> ".join(running) + "\n"
    report += f"  (coerced at '{written[-1]}' via {bridge[0]})\n"
    return ("aor", (*written, "--noun", declared), report)
