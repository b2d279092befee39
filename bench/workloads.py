"""The workloads: resource text, one pass of inputs, and expected outputs.

Each workload function takes the seed and returns a ``Workload``. Sizes
are fixed per workload and the seed only draws content and order, so every
seed asks for the same amount of work. ``smoke`` shrinks every size for the
self-test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import gen
import reference

FIXTURES = Path("src") / "ontologik" / "fixtures"


@dataclass
class Workload:
    name: str
    ontology: str  # resource text the package loads
    lexicon: str
    inputs: list[tuple[tuple[str, ...], tuple[int, str, str]]]  # one pass: (argv, (exit, stdout, stderr))


def _fixtures(root: Path) -> tuple[str, str]:
    return (root / FIXTURES / "reference.ont").read_text(), (root / FIXTURES / "reference.lex").read_text()


def reference_mix(root: Path, seed: int, smoke: bool) -> Workload:
    """Every hand-written case once per pass, plus seeded ``unify`` pairs and
    seeded small ``@lf:`` forms, in seeded order. The seeded inputs come in
    equal numbers of cheap ones (a unify) and dear ones (an analyze), so the
    median stays among the hand-written cases. Half the seeded pairs unify or
    coerce and half fail, so the share rejected is the same for every seed."""
    rnd = random.Random(seed)
    pairs = [reference.unify_case(*pair) for pair in reference.unify_pairs()]
    cases = list(reference.CASES)
    for exit_code in (0, 2):
        cases += rnd.sample([c for c in pairs if c[1] == exit_code], SEEDED // 2)
    for k in range(SEEDED):
        make = gen.existential_prefix if k % 2 else gen.wide_conjunction
        source, report = make(rnd, 3, BRIDGE_SHARE)
        cases.append((("analyze", "@lf: " + source), 0, report, ""))
    if smoke:
        cases = rnd.sample(cases, 8)
    rnd.shuffle(cases)
    return Workload("reference_mix", *_fixtures(root), [(c[0], c[1:]) for c in cases])


SEEDED = 10  # seeded unify pairs, and seeded small forms, per pass of reference_mix
BRIDGE_SHARE = 0.2
PREFIX_SIZES = [25, 50, 100, 200, 300]  # the ROADMAP sweep: 25 to 300 binders
WIDE_SIZES = [100, 400]


def large_forms(root: Path, seed: int, smoke: bool) -> Workload:
    """``@lf:`` existential prefixes of every size in ``PREFIX_SIZES`` and wide
    conjunctions of every size in ``WIDE_SIZES``, on the shipped fixtures."""
    rnd = random.Random(seed)
    shapes = [(gen.existential_prefix, n) for n in ([4, 8] if smoke else PREFIX_SIZES)]
    shapes += [(gen.wide_conjunction, n) for n in ([6] if smoke else WIDE_SIZES)]
    rnd.shuffle(shapes)
    inputs = []
    for make, n in shapes:
        source, report = make(rnd, n, BRIDGE_SHARE)
        inputs.append((("analyze", "@lf: " + source), (0, report, "")))
    return Workload("large_forms", *_fixtures(root), inputs)


def large_ontology(root: Path, seed: int, smoke: bool) -> Workload:
    """About 4,000 types (a 2,000-deep broom plus a random bush) and 1,000
    salient relations; each operation folds one referent into chain types
    400 to 600 deep, half through ``analyze`` and half through ``check_order``."""
    rnd = random.Random(seed)
    if smoke:
        res = gen.large_ontology(rnd, 60, 5, 40, 30, op_pairs=2, folds=3, depth_band=(20, 40))
    else:
        res = gen.large_ontology(rnd, 2000, 200, 1800, 1000, op_pairs=12, folds=4, depth_band=(400, 600))
    inputs = [((kind, *args), (0, report, "")) for kind, args, report in res.ops]
    return Workload("large_ontology", res.ontology, res.lexicon, inputs)


CLI_COMMANDS = ("analyze", "parse", "aor", "unify", "hempel")


def cli_cases(seed: int, per_command: int) -> list:
    """``per_command`` hand-written cases for each subcommand, seeded."""
    rnd = random.Random(seed)
    out = []
    for command in CLI_COMMANDS:
        pool = [c for c in reference.CASES if c[0][0] == command]
        if command == "unify":
            pool += [reference.unify_case(*pair) for pair in rnd.sample(reference.unify_pairs(), per_command)]
        out += [(c[0], c[1:]) for c in rnd.sample(pool, per_command)]
    return out


WORKLOADS = {
    "reference_mix": reference_mix,
    "large_forms": large_forms,
    "large_ontology": large_ontology,
}
