"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` swaps each function listed in ``LAYERS`` for a wrapper in
every ``ontologik`` module that refers to it (methods on their class), and
``uninstall`` puts the originals back; no file under ``src/`` changes. A
span records its layer, start, end and parent; the spans of one operation
share that operation's id. When an operation ends its spans are folded into
per-layer totals, where a span's self time is its duration minus its
children's, and spans that do not nest inside their operation are counted. A bounded sample of raw spans is kept in memory and written out
when the benchmark ends.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (layer name, module, attribute path). The layer name is the metric prefix.
LAYERS = [
    ("ontology.load_ontology", "ontologik.ontology", "load_ontology"),
    ("ontology.Ontology.compare", "ontologik.ontology", "Ontology.compare"),
    ("ontology.Ontology.subsumes", "ontologik.ontology", "Ontology.subsumes"),
    ("lexicon.load_lexicon", "ontologik.lexicon", "load_lexicon"),
    ("lexicon.Lexicon.coercion_candidates", "ontologik.lexicon", "Lexicon.coercion_candidates"),
    ("lexicon.Lexicon.atom_signature", "ontologik.lexicon", "Lexicon.atom_signature"),
    ("nlparser.parse_sentence", "ontologik.nlparser", "parse_sentence"),
    ("logform.parse_lf", "ontologik.logform", "parse_lf"),
    ("logform.canonicalize", "ontologik.logform", "canonicalize"),
    ("logform.pretty", "ontologik.logform", "pretty"),
    ("unifier.analyze", "ontologik.unifier", "analyze"),
    ("unifier.fold_expectations", "ontologik.unifier", "fold_expectations"),
    ("unifier.unify_types", "ontologik.unifier", "unify_types"),
    ("aor.check_order", "ontologik.aor", "check_order"),
    ("confirm.equivalence_check", "ontologik.confirm", "equivalence_check"),
    ("confirm.evaluate", "ontologik.confirm", "evaluate"),
    ("confirm.parse_observation", "ontologik.confirm", "parse_observation"),
]
OP = "bench.op"  # root span of one operation; its self time is the CLI subcommand's own work plus the benchmark's dispatch
SETUP = "bench.setup"  # root span of one resource load
SETUP_LAYERS = ("ontology.load_ontology", "lexicon.load_lexicon")
NAMES = [OP, SETUP] + [name for name, _, _ in LAYERS]

KEEP_SPANS = 50_000  # raw spans kept for the trace file


def _tag_candidates(args, result):
    return "hit" if result else "miss"


def _tag_unify(args, result):
    return type(result).__name__


def _tag_fold(args, result):
    return type(result[0]).__name__


def _tag_canonicalize(args, result):
    return (args[0], result)  # sized after the operation, outside its time


TAGS = {
    "lexicon.Lexicon.coercion_candidates": _tag_candidates,
    "unifier.unify_types": _tag_unify,
    "unifier.fold_expectations": _tag_fold,
    "logform.canonicalize": _tag_canonicalize,
}


def form_size(form) -> int:
    """Node count of a logical form, iteratively (forms nest hundreds deep)."""
    from ontologik.logform import And, Implies, Not, Quant

    count, stack = 0, [form]
    while stack:
        f = stack.pop()
        count += 1
        if isinstance(f, And):
            stack.extend(f.items)
        elif isinstance(f, Not):
            stack.append(f.item)
        elif isinstance(f, Implies):
            stack += [f.antecedent, f.consequent]
        elif isinstance(f, Quant):
            stack.append(f.body)
    return count


class LayerStats:
    """Per-layer totals over a run of root spans of one kind."""

    def __init__(self):
        self.roots = 0
        self.calls = Counter()
        self.errors = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.tags = Counter()  # (layer, tag) -> count, plus node sums


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, tag] of the current root
        self.stack: list[int] = []
        self.kept: list[tuple] = []
        self.roots = 0
        self.misnested = 0  # spans outside their parent, or roots that are not an operation's first span
        self.ops = LayerStats()
        self.setups = LayerStats()
        self._restore: list[tuple] = []

    def pass_counts(self) -> Counter:
        """The operations' counts so far: everything that must repeat
        exactly for the same inputs."""
        flat = Counter()
        for kind, counter in (("calls", self.ops.calls), ("errors", self.ops.errors)):
            for name, n in counter.items():
                flat[f"{name}.{kind}"] = n
        for (name, tag), n in self.ops.tags.items():
            flat[f"{name}.{tag}"] = n
        return flat

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn):
        layer = NAMES.index(name)
        tag = TAGS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                rec[4] = "error"
                stack.pop()
                raise
            rec[2] = clock()
            stack.pop()
            if tag is not None:
                rec[4] = tag(args, result)
            return result

        return traced

    def install(self):
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._swap(cls, attr, self.wrap(name, original))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original)
            if path == "pretty":
                wrapper = self._outermost(module, path, original, wrapper)
            for mod in [m for k, m in sys.modules.items() if k == "ontologik" or k.startswith("ontologik.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, attr, wrapper)

    def _outermost(self, module, attr, original, wrapper):
        # pretty recurses through its module-level name. Calls made while a
        # pretty span is open go straight to the original, so tracing adds two
        # frames per rendering, not per nesting level, and `calls` counts
        # whole renderings.
        def outermost(form):
            setattr(module, attr, original)
            try:
                return wrapper(form)
            finally:
                setattr(module, attr, outermost)

        return outermost

    def _swap(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- folding -------------------------------------------------------------

    def close_root(self):
        """Fold the spans of the operation or set-up that just ended."""
        spans = self.spans
        stats = self.setups if spans[0][0] == NAMES.index(SETUP) else self.ops
        stats.roots += 1
        self.misnested += len(self.stack) + (spans[0][3] != -1)
        child = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans[1:], 1):
            if 0 <= parent < i and spans[parent][1] <= start and end <= spans[parent][2]:
                child[parent] += end - start
            else:
                self.misnested += 1
        for i, (layer, start, end, parent, tag) in enumerate(spans):
            name = NAMES[layer]
            stats.calls[name] += 1
            stats.total[name] += end - start
            stats.self_time[name] += end - start - child[i]
            if tag == "error":
                stats.errors[name] += 1
            elif isinstance(tag, tuple):
                stats.tags[(name, "nodes_in")] += form_size(tag[0])
                stats.tags[(name, "nodes_out")] += form_size(tag[1])
            elif tag is not None:
                stats.tags[(name, tag)] += 1
            if len(self.kept) < KEEP_SPANS:
                self.kept.append((self.roots, name, start, end, parent))
        self.roots += 1
        spans.clear()

    def write(self, path, pass_counts: dict):
        """Write the kept spans and the counts of one pass over the inputs."""
        with open(path, "w") as out:
            json.dump(
                {"columns": ["op", "layer", "start", "end", "parent"], "spans": self.kept, "pass_counts": pass_counts},
                out,
            )
