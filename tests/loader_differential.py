"""Compare both loaders with their frozen pattern copies on spliced fixtures.

    PYTHONPATH=src:tests python tests/loader_differential.py [count] [seed]

Each loader reads ``count`` texts (default 200,000), the shipped fixture
with a few declarations spliced by :func:`oracles.splice`, and its outcome
must equal the pattern copy's. Tier-1 runs 20,000 per loader; this runs
more, outside it. Prints the count of texts per outcome and exits 1 on the
first disagreement.
"""
import random
import re
import sys
import time
from collections import Counter

from ontologik import load_lexicon, load_ontology
from ontologik.fixtures import lexicon_path, load_reference, ontology_path
from oracles import lexicon_data, ontology_data, outcome, pattern_load_lexicon, pattern_load_ontology, splice


def main(count: int, seed: int) -> int:
    ont, _ = load_reference()
    loaders = (
        ("load_ontology", ontology_path().read_text(), pattern_load_ontology, load_ontology, ontology_data, ()),
        ("load_lexicon", lexicon_path().read_text(), pattern_load_lexicon, load_lexicon, lexicon_data, (ont,)),
    )
    for name, text, frozen, load, data, extra in loaders:
        rng = random.Random(seed)
        seen = Counter()
        start = time.perf_counter()
        for _ in range(count):
            source = splice(rng, text)
            want = outcome(lambda: data(frozen(source, *extra)))
            got = outcome(lambda: data(load(source, *extra)))
            if got != want:
                print(f"{name} differs on {source!r}: {got} against {want}")
                return 1
            seen[want[0] if want[0] == "ok" else re.sub("'[^']*'", "X", want[1].split(": ", 1)[1])] += 1
        print(f"{name}: {count:,} texts agree in {time.perf_counter() - start:.1f} s")
        for what, n in seen.most_common():
            print(f"  {n:>8,}  {what}")
    return 0


if __name__ == "__main__":
    args = [int(arg) for arg in sys.argv[1:]]
    sys.exit(main(*args, *(200_000, 22)[len(args):]))
