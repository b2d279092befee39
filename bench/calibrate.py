"""Scaling of measured times to a reference core.

On a shared machine other tenants slow a core by about half for seconds to
minutes at a time, and the package's work slows by about the same factor as
a fixed pure-Python loop. So the loop is timed next to the work, in the same
process, and the work's wall time is multiplied by ``REF_S`` over the loop's
time: the figure is what the work would take on a core that runs the loop
in ``REF_S``. This module imports nothing but ``time``, so a fresh
interpreter can use it before a cold import of the package.
"""
import time

LOOP = 40_000  # iterations of the loop's arithmetic part
KEYS = 4_000  # entries its allocating part builds and sorts
REF_S = 0.0025  # the loop's time on an undisturbed core of the baseline machine


def seconds() -> float:
    """How long the loop takes on this core at this moment. It does integer
    arithmetic and then builds and sorts a dict of small objects, because
    other tenants slow the two kinds of work by different factors and the
    package does both."""
    start = time.perf_counter()
    x = 0
    for i in range(LOOP):
        x += i & 7
    keys = {}
    for i in range(KEYS):
        keys[str(i)] = (i, [i])
    sorted(keys)
    return time.perf_counter() - start


def normalized(took: float, before: float, after: float) -> float:
    """``took`` seconds measured between two loop timings, scaled to the reference core."""
    return took * REF_S / ((before + after) / 2)
