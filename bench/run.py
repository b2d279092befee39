"""Benchmark for ontologik, run from the root of a source checkout.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Workloads (see ``workloads.py`` and ``design.json``): ``reference_mix``,
``large_forms`` and ``large_ontology``. Each is a closed loop with one
client: the next input goes in when the previous output is back. The
run makes whole passes over the workload's inputs until ``--seconds`` have
passed, times each operation alone, checks every output against its
independently built expected value outside the timed region, and prints one
line per metric followed by a JSON object as the last line of stdout.

Timings are scaled to a reference core (see ``calibrate.py``): the
calibration loop is timed at least every ``CAL_EVERY_S`` seconds, and each
operation is scaled by the loop's time around it. The untraced run is split
over three worker processes, one after another, whose samples are pooled.
Workers are this script started again with ``--part``; each is waited for,
and killed with everything it started if the run ends early.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs a
third of the time untraced, then wraps the package's public functions (see
``spans.py``) and reports per-layer metrics, including the tracing overhead
against the untraced part. The traced run must reproduce the untraced
outputs, its spans must nest inside their operation, and its per-layer
counts must repeat exactly from pass to pass and in one traced pass made
in a fresh interpreter.
It ends with a few ``ontologik`` subprocesses per subcommand for the
``cli.*`` metrics: interpreter start, import and wall time per call.
"""
from __future__ import annotations

import argparse
import array
import base64
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKERS = 3  # processes an untraced run is split over, one after another
CAL_EVERY_S = 0.01  # longest stretch of operations between two calibrations
SETUP_RUNS = 9  # fresh-interpreter set-ups per run, spread over it; the median is reported
PROBE_RUNS = 5  # fresh interpreters per cli.interpreter_s / cli.import_s probe
CLI_CALLS = 4  # ontologik subprocesses per subcommand in a traced run
TRACED_SETUPS = 3
WARMUP_OPS = 3
CHILD_TIMEOUT = 120

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Children run with -S: site-packages hooks of the host (one here imports
# certifi, about 35 ms) are not the package's cost, and ontologik needs
# nothing from site-packages. PYTHONPATH still points at the checkout.
PYTHON = [sys.executable, "-S"]
# Set-up in a fresh interpreter: read the resource text, then time importing
# the package and loading both resources, scaled by calibrations in the same
# process. Only builtins are loaded before the clock starts, so the import is
# measured cold; the benchmark's directory goes last on the path, so the
# package's imports do not search it.
SETUP_CHILD = """\
import sys, time
sys.path.append({bench!r})
from calibrate import normalized, seconds
ontology, lexicon = sys.stdin.read().split("\\0")
seconds()  # discarded: the first run also grows the fresh heap
before = seconds()
start = time.perf_counter()
import ontologik
ontologik.load_lexicon(lexicon, ontologik.load_ontology(ontology))
took = time.perf_counter() - start
print(normalized(took, before, seconds()))
""".format(bench=str(BENCH))
IMPORT_CHILD = """\
import time
start = time.perf_counter()
import ontologik.cli
print(time.perf_counter() - start)
"""
# No console script is installed in a checkout, so go through the interpreter.
CLI_CHILD = "from ontologik.cli import run; run()"


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    from spans import LAYERS, OP, SETUP_LAYERS
    from workloads import CLI_COMMANDS

    specs = []
    for name in [OP] + [layer for layer, _, _ in LAYERS]:
        per = "setup" if name in SETUP_LAYERS else "op"
        specs += [
            (f"{name}.calls", f"calls/{per}", "lower"),
            (f"{name}.total_s", f"s/{per}", "lower"),
            (f"{name}.self_s", f"s/{per}", "lower"),
            (f"{name}.errors", f"errors/{per}", "lower"),
        ]
    specs += [
        ("lexicon.Lexicon.coercion_candidates.hit_ratio", "ratio", "higher"),
        ("logform.canonicalize.nodes_in", "nodes/op", "lower"),
        ("logform.canonicalize.nodes_out", "nodes/op", "lower"),
    ]
    for layer in ("unifier.unify_types", "unifier.fold_expectations"):
        specs += [
            (f"{layer}.unified", "count/op", "higher"),
            (f"{layer}.coerced", "count/op", "higher"),
            (f"{layer}.failed", "count/op", "lower"),
        ]
    specs += [("cli.interpreter_s", "s", "lower"), ("cli.import_s", "s", "lower")]
    specs += [(f"cli.{command}.wall_ms", "ms", "lower") for command in CLI_COMMANDS]
    specs += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
    ]
    return specs


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ONTOLOGIK_FIXTURES", None)  # the CLI must read the checkout's fixtures
    return env


def child_seconds(code: str, stdin: str = "") -> float:
    """The seconds a child measures itself and prints."""
    done = subprocess.run(
        [*PYTHON, "-c", code], input=stdin, capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT, check=True,
    )
    return float(done.stdout)


def interpreter_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([*PYTHON, "-c", "pass"], env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT, check=True)
    return time.perf_counter() - start


def run_part(part: str, name: str, seed: int, smoke: bool, seconds: float = 0.0) -> dict:
    """Run ``part`` of a run in a fresh interpreter (this script with
    ``--part``) and return the JSON object it prints last. The child gets a
    session of its own, so whatever it started is killed with it when the
    run ends early; it is always waited for."""
    argv = [sys.executable, str(BENCH / "run.py"), "--part", part, "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    if smoke:
        argv.append("--smoke")
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT + seconds)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{part} worker exited with code {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cli_call(argv) -> tuple[int, str, str]:
    """One ``ontologik`` call in a fresh interpreter: (exit code, stdout, stderr)."""
    done = subprocess.run(
        [*PYTHON, "-c", CLI_CHILD, *argv], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    return done.returncode, done.stdout, done.stderr


# ----------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------


class Phase:
    """Normalized latencies, failures, first-pass outputs and per-pass counts of one loop."""

    def __init__(self, inputs: int):
        # 4-byte floats keep the samples small against peak_rss_mb, which
        # they would otherwise inflate in proportion to the speed.
        self.samples = [array.array("f") for _ in range(inputs)]
        self.calibrations = array.array("f")
        self.attempted = 0
        self.failed = 0
        self.outputs: list = []
        self.pass_counts: list[dict] = []

    def pooled(self) -> list[float]:
        return [t for times in self.samples for t in times]

    @property
    def ops_per_s(self) -> float:
        pooled = self.pooled()
        return len(pooled) / sum(pooled)


def measure(workload, call, seconds: float, min_passes: int, tracer=None, probe=None, probes: int = 0) -> Phase:
    """Whole passes until ``seconds`` of passes have run. Every operation's
    latency is scaled by calibrations taken at most ``CAL_EVERY_S`` apart
    around it. ``probe`` runs ``probes`` times between passes, spread evenly
    over the run; its own time does not count towards ``seconds``."""
    phase = Phase(len(workload.inputs))
    clock = time.perf_counter
    start, paused, probed = clock(), 0.0, 0
    before = Counter()
    pending: list[tuple[int, float]] = []
    calibrated, calibrated_at = calibrate.seconds(), clock()

    def settle():
        nonlocal calibrated, calibrated_at
        now = calibrate.seconds()
        phase.calibrations.append(now)
        for i, took in pending:
            phase.samples[i].append(calibrate.normalized(took, calibrated, now))
        pending.clear()
        calibrated, calibrated_at = now, clock()

    while True:
        elapsed = clock() - start - paused
        if probed < probes and elapsed >= seconds * probed / probes:
            if pending:
                settle()
            began = clock()
            probe()
            paused += clock() - began
            probed += 1
            calibrated, calibrated_at = calibrate.seconds(), clock()
            continue
        if len(phase.pass_counts) >= min_passes and elapsed >= seconds and probed == probes:
            if pending:
                settle()
            return phase
        first = not phase.pass_counts
        for i, (argv, expected) in enumerate(workload.inputs):
            began = clock()
            try:
                output = call(argv)
            except Exception as err:  # an uncaught error is a failed operation, not the end of the run
                output = ("exception", repr(err))
            took = clock() - began
            if tracer is not None:
                tracer.close_root()
            pending.append((i, took))
            phase.attempted += 1
            if output != expected:
                phase.failed += 1
                if phase.failed <= 3:
                    print(f"mismatch on {argv!r}:\n  got {output!r}\n  expected {expected!r}", file=sys.stderr)
            if first:
                phase.outputs.append(output)
            if clock() - calibrated_at >= CAL_EVERY_S:
                settle()
        now = tracer.pass_counts() if tracer is not None else Counter()
        phase.pass_counts.append(dict(now - before))
        before = now


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (statistics' exclusive method)."""
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100)[q - 1] * 1000


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def cli_args(argv) -> list:
    """The arguments ``ontologik.cli.main`` passes to ``cmd_<argv[0]>`` for
    the argument vectors the workloads use."""
    rest = list(argv[1:])
    if argv[0] == "aor":  # <adjective>... --noun <noun>
        return [rest[:-2], rest[-1]]
    if argv[0] == "hempel":  # --h1 <h> --h2 <h> [--observe <o>]...
        return [rest[1], rest[3], rest[5::2]]
    return rest  # analyze <text>, parse <text>, unify <first> <second>


def _executor(workload):
    """Run one argument vector through the CLI's own ``cmd_*`` function in
    this process, on resources loaded once: (exit code, stdout, stderr)."""
    import ontologik
    from ontologik import cli

    ont = ontologik.load_ontology(workload.ontology)
    lex = ontologik.load_lexicon(workload.lexicon, ont)

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = getattr(cli, "cmd_" + argv[0])(ont, lex, cli.Reporter("human"), *cli_args(argv))
        return code, out.getvalue(), err.getvalue()

    return call


def _warm(workload, call):
    for argv, _ in workload.inputs[:WARMUP_OPS]:
        call(argv)


def measure_worker(name: str, seed: int, smoke: bool, seconds: float) -> dict:
    """One worker process's share of an untraced run: its samples, counts,
    set-up times and peak RSS."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed, smoke)
    resources = workload.ontology + "\0" + workload.lexicon
    child_seconds(SETUP_CHILD, resources)  # discarded: also writes the bytecode cache
    setups: list[float] = []

    def setup_probe():
        setups.append(child_seconds(SETUP_CHILD, resources))

    call = _executor(workload)
    _warm(workload, call)
    phase = measure(workload, call, seconds, min_passes=1, probe=setup_probe, probes=SETUP_RUNS // WORKERS)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the samples are encoded
    return {
        "samples": [base64.b64encode(times.tobytes()).decode() for times in phase.samples],
        "calibrations": base64.b64encode(phase.calibrations.tobytes()).decode(),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "passes": len(phase.pass_counts),
        "setups": setups,
        "rss_kb": rss_kb,
    }


def floats(encoded: str) -> array.array:
    """The 4-byte floats a worker sent, base64-encoded."""
    values = array.array("f")
    values.frombytes(base64.b64decode(encoded))
    return values


def run_untraced(workload, seed: int, smoke: bool, seconds: float) -> dict:
    # Each worker is a fresh interpreter with its own address-space layout
    # and string hashes, which move a process's speed for its whole life, so
    # the run pools several.
    parts = [run_part("untraced", workload.name, seed, smoke, seconds / WORKERS) for _ in range(WORKERS)]
    pooled = [t for part in parts for times in part["samples"] for t in floats(times)]
    calibrations = [c for part in parts for c in floats(part["calibrations"])]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    setups = [t for part in parts for t in part["setups"]]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(pooled) / sum(pooled),
        "latency_p50_ms": statistics.median(pooled) * 1000,
        "latency_p90_ms": percentile_ms(pooled, 90),
        "peak_rss_mb": max(part["rss_kb"] for part in parts) / 1024,
    }
    print(
        f"{workload.name}: {attempted} operations in {WORKERS} worker processes "
        f"({', '.join(str(part['passes']) for part in parts)} passes of {len(workload.inputs)}), "
        f"{failed} failed, error_rate = {failed / attempted:.6g}; timings over {len(pooled)} samples, "
        f"setup_s median of {len(setups)}; calibration loop median {statistics.median(calibrations) * 1000:.3f} ms, "
        f"fastest {min(calibrations) * 1000:.3f} ms, reference {calibrate.REF_S * 1000:.3f} ms"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END},
    }


def counts_worker(name: str, seed: int, smoke: bool) -> dict:
    """The per-layer counts of one traced pass in a fresh interpreter, which
    has its own string-hash seed unless PYTHONHASHSEED fixes it. As in
    ``run_traced``, an untraced pass goes first."""
    from spans import OP, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed, smoke)
    call = _executor(workload)
    measure(workload, call, 0, min_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        return measure(workload, tracer.wrap(OP, call), 0, min_passes=1, tracer=tracer).pass_counts[0]
    finally:
        tracer.uninstall()


def run_traced(workload, seconds: float, seed: int, smoke: bool) -> dict:
    from spans import LAYERS, OP, SETUP, SETUP_LAYERS, Tracer
    from workloads import CLI_COMMANDS, cli_cases

    import ontologik

    call = _executor(workload)
    _warm(workload, call)
    untraced = measure(workload, call, seconds / 3, min_passes=1)

    tracer = Tracer()
    tracer.install()
    try:
        load = tracer.wrap(SETUP, lambda: ontologik.load_lexicon(workload.lexicon, ontologik.load_ontology(workload.ontology)))
        for _ in range(TRACED_SETUPS):
            load()
            tracer.close_root()
        traced = measure(workload, tracer.wrap(OP, call), seconds * 2 / 3, min_passes=2, tracer=tracer)
    finally:
        tracer.uninstall()

    fresh = run_part("counts", workload.name, seed, smoke)

    problems = []
    if traced.outputs != untraced.outputs:
        problems.append("traced outputs differ from untraced outputs")
    if any(counts != traced.pass_counts[0] for counts in traced.pass_counts):
        problems.append("per-layer counts differ between passes over the same inputs")
    if fresh != traced.pass_counts[0]:
        differ = sorted(k for k in fresh.keys() | traced.pass_counts[0].keys() if fresh.get(k) != traced.pass_counts[0].get(k))
        problems.append(f"per-layer counts differ in a fresh interpreter: {', '.join(differ)}")
    if tracer.misnested:
        problems.append(f"{tracer.misnested} spans do not nest inside their operation")
    ops = tracer.ops
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    values: dict[str, float] = {}
    for name in [OP] + [layer for layer, _, _ in LAYERS]:
        stats = tracer.setups if name in SETUP_LAYERS else ops
        per = max(stats.roots, 1)
        values[f"{name}.calls"] = stats.calls[name] / per
        values[f"{name}.total_s"] = stats.total[name] / per
        values[f"{name}.self_s"] = stats.self_time[name] / per
        values[f"{name}.errors"] = stats.errors[name] / per
    per_op = max(ops.roots, 1)
    candidates = "lexicon.Lexicon.coercion_candidates"
    hits, misses = ops.tags[(candidates, "hit")], ops.tags[(candidates, "miss")]
    values[f"{candidates}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for tag in ("nodes_in", "nodes_out"):
        values[f"logform.canonicalize.{tag}"] = ops.tags[("logform.canonicalize", tag)] / per_op
    for layer in ("unifier.unify_types", "unifier.fold_expectations"):
        for outcome in ("Unified", "Coerced", "Failed"):
            values[f"{layer}.{outcome.lower()}"] = ops.tags[(layer, outcome)] / per_op
    values["cli.interpreter_s"] = statistics.median(interpreter_seconds() for _ in range(PROBE_RUNS))
    child_seconds(IMPORT_CHILD)  # discarded: also writes the bytecode cache
    values["cli.import_s"] = statistics.median(child_seconds(IMPORT_CHILD) for _ in range(PROBE_RUNS))
    walls, cli_failed = defaultdict(list), 0
    cases = cli_cases(seed, 1 if smoke else CLI_CALLS)
    for argv, expected in cases:
        began = time.perf_counter()
        output = cli_call(argv)
        walls[argv[0]].append(time.perf_counter() - began)
        if output != expected:
            cli_failed += 1
            print(f"mismatch on ontologik {argv!r}:\n  got {output!r}\n  expected {expected!r}", file=sys.stderr)
    for command in CLI_COMMANDS:
        values[f"cli.{command}.wall_ms"] = statistics.median(walls[command]) * 1000
    values["trace.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s
    values["trace.ops_per_s"] = traced.ops_per_s
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-{seed}.json", traced.pass_counts[0])
    failed = untraced.failed + traced.failed + cli_failed
    attempted = untraced.attempted + traced.attempted + len(cases)
    print(
        f"{workload.name} traced: {traced.attempted} traced and {untraced.attempted} untraced operations "
        f"in {len(traced.pass_counts)} and {len(untraced.pass_counts)} passes, {len(cases)} ontologik calls, "
        f"{failed} failed, error_rate = {failed / attempted:.6g}"
    )
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_specs()},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--part", choices=("untraced", "counts"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ontologik" / "__init__.py").is_file():
        print(f"error: no ontologik sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.part == "untraced":
        print(json.dumps(measure_worker(args.workload, args.seed, args.smoke, args.seconds)))
        return 0
    if args.part == "counts":
        print(json.dumps(counts_worker(args.workload, args.seed, args.smoke)))
        return 0
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    if args.trace:
        result = run_traced(workload, args.seconds, args.seed, args.smoke)
    else:
        result = run_untraced(workload, args.seed, args.smoke, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
