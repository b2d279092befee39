"""Command-line front end.

Subcommands::

    analyze  one sentence (or @lf:-prefixed logical form): type it fully,
             show the derivation trace and any recovered missing text
    parse    one sentence: show the untyped logical form (debugging aid)
    aor      judge an adjective order against a noun
    unify    unify two type names
    hempel   canonicalize two hypotheses, compare them, and evaluate
             observations against both

Every subcommand builds one :class:`Record` per result, and
:meth:`Reporter.emit` prints it as human text or, with ``--format
structured``, as one JSON line with six fields: command, status, canonical,
trace, glosses and a command-specific detail object. The exit code follows
from the statuses: 0 when every status is ``ok``, 3 when one is
``parse_error`` or ``load_error``, and 2 otherwise.

An error record's detail holds ``message``, ``error`` (the exception's
class name) and whichever of the exception's fields ``line``, ``position``,
``name``, ``subject``, ``declared`` and ``expectation`` it has; human mode
prints only ``error: <message>`` on stderr. Records are slotted classes.

A subcommand reads what only some subcommands use through the module that
defines it, as ``pkg.unifier.analyze``: the package imports ``aor``,
``confirm``, ``nlparser``, ``logform`` and ``unifier`` the first time each
is read, and every later read finds the module bound in the package.
``json`` loads only for structured output.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import fixtures
from .errors import LexiconError, OntologikError, OntologyError, TypeCheckError
from .lexicon import Lexicon, load_lexicon
from .ontology import Ontology, load_ontology

pkg = sys.modules[__package__]  # pkg.<module> imports that module on first read (see __init__)

EXIT_OK = 0
EXIT_SEMANTIC = 2  # the exit code of every status not in EXIT_CODES
EXIT_PARSE = 3
EXIT_CODES = {"ok": EXIT_OK, "parse_error": EXIT_PARSE, "load_error": EXIT_PARSE}

ERROR_STATUSES = {"type_error", "parse_error", "load_error"}
ERROR_FIELDS = ("line", "position", "name", "subject", "declared", "expectation")

LF_PREFIX = "@lf:"


class Record:
    """One result, as the structured format prints it: its slots in order."""

    __slots__ = ("command", "status", "canonical", "trace", "glosses", "detail")

    def __init__(
        self, command: str, status: str, canonical: str | None = None,
        trace: list | None = None, glosses: list[str] | None = None,
        detail: dict | None = None,
    ):
        self.command, self.status, self.canonical = command, status, canonical
        self.trace, self.glosses, self.detail = trace or [], glosses or [], detail or {}


def _render(record: Record) -> str:
    """The human text of a record that is not an error."""
    d = record.detail
    match record.command:
        case "analyze":
            lines = [f"typed form: {record.canonical}", "derivation:"]
            lines += [
                "  " + (f"[{s.subject}] " if s.subject else "") + f"{s.detail} -> {s.outcome}"
                for s in record.trace
            ]
            lines.append("missing text:")
            lines += [f"  {gloss}" for gloss in record.glosses or ["no missing text detected"]]
            return "\n".join(lines)
        case "parse":
            return record.canonical
        case "aor" if record.status == "ok":
            lines = ["Accepted: " + " -> ".join(d["running_types"])]
            lines += [f"  (coerced at '{c['adjective']}' via {c['relation']})" for c in d["coercions"]]
            return "\n".join(lines)
        case "aor" if record.status == "violation":
            return f"Violation at '{d['adjective']}': expected {d['expected']}, running {d['running']}"
        case "aor":
            return f"Type failure at '{d['adjective']}'"
        case "unify" if record.status == "ok":
            if d["outcome"] == "unified":
                return f"Unified {d['result']}"
            return f"Coerced {d['result']} via {d['relation']}({d['result']}, {d['relatum']})"
        case "unify":
            return "Failed"
        case "hempel":
            equivalent = "yes" if d["equivalent"] else "no"
            return f"h1 canonical: {d['h1']}\nh2 canonical: {d['h2']}\nequivalent: {equivalent}"
    return f"{d['observation']}: h1 {d['h1']}, h2 {d['h2']}" + ("" if d["agree"] else "  [disagree]")


class Reporter:
    """Prints records as prose or as line-delimited JSON."""

    def __init__(self, output_format: str):
        self.structured = output_format == "structured"
        if self.structured:
            from json import dumps  # only a structured record needs it
            self.dumps = dumps

    def emit(self, records: list[Record]) -> int:
        """Print ``records`` and return the highest exit code of their statuses."""
        code = EXIT_OK
        for record in records:
            if self.structured:
                trace = [{k: getattr(s, k) for k in s.__slots__} for s in record.trace]
                line = {k: getattr(record, k) for k in Record.__slots__} | {"trace": trace}
                print(self.dumps(line))
            elif record.status in ERROR_STATUSES:
                print(f"error: {record.detail['message']}", file=sys.stderr)
            else:
                print(_render(record))
            code = max(code, EXIT_CODES.get(record.status, EXIT_SEMANTIC))
        return code


def _attempt(command: str, compute, failure: str = "parse_error"):
    """``compute()``'s value, or a list of one error record when it raises:
    ``type_error`` for a :class:`TypeCheckError`, ``failure`` for any other
    package or OS error."""
    # The record is built in the handler, so the exception (its traceback holds this frame) dies with it.
    try:
        return compute()
    except (OntologikError, OSError) as err:
        status = "type_error" if isinstance(err, TypeCheckError) else failure
        detail = {"message": str(err), "error": type(err).__name__}
        detail.update((key, getattr(err, key)) for key in ERROR_FIELDS if hasattr(err, key))
        return [Record(command, status, detail=detail)]


# ----------------------------------------------------------------------
# session setup
# ----------------------------------------------------------------------


def _load_session(args: argparse.Namespace) -> tuple[Ontology, Lexicon]:
    where = fixtures._fixture_dir()
    ontology_path = getattr(args, "ontology", None) or os.path.join(where, fixtures.ONTOLOGY_FILE)
    lexicon_path = getattr(args, "lexicon", None) or os.path.join(where, fixtures.LEXICON_FILE)
    ont = load_ontology(fixtures._read(ontology_path, OntologyError))
    return ont, load_lexicon(fixtures._read(lexicon_path, LexiconError), ont)


def _read_form(text: str, ont: Ontology, lex: Lexicon):
    if text.startswith(LF_PREFIX):
        return pkg.logform.parse_lf(text[len(LF_PREFIX):].strip())
    return pkg.nlparser.parse_sentence(text, ont, lex)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_analyze(ont: Ontology, lex: Lexicon, rep: Reporter, text: str) -> int:
    def records():
        result = pkg.unifier.analyze(_read_form(text, ont, lex), ont, lex)
        return [Record("analyze", "ok", result.text, result.trace.steps, result.missing_text)]

    return rep.emit(_attempt("analyze", records))


def cmd_parse(ont: Ontology, lex: Lexicon, rep: Reporter, text: str) -> int:
    def records():
        return [Record("parse", "ok", pkg.logform.pretty(_read_form(text, ont, lex)))]

    return rep.emit(_attempt("parse", records))


def cmd_aor(ont: Ontology, lex: Lexicon, rep: Reporter, adjectives: list[str], noun: str) -> int:
    def records():
        match pkg.aor.check_order(ont, lex, adjectives, noun):
            case pkg.aor.Accepted(chain, coercions):
                coerced = [{"adjective": adjectives[i], "relation": r} for i, r in coercions]
                detail = {"verdict": "accepted", "running_types": list(chain), "coercions": coerced}
            case pkg.aor.Violation(i, expected, running):
                detail = {
                    "verdict": "violation",
                    "adjective": adjectives[i],
                    "at_index": i,
                    "expected": expected,
                    "running": running,
                }
            case pkg.aor.TypeFailure(i):
                detail = {"verdict": "type_failure", "adjective": adjectives[i], "at_index": i}
        status = "ok" if detail["verdict"] == "accepted" else detail["verdict"]
        return [Record("aor", status, detail=detail)]

    return rep.emit(_attempt("aor", records))


def cmd_unify(ont: Ontology, lex: Lexicon, rep: Reporter, first: str, second: str) -> int:
    def records():
        match pkg.unifier.unify_types(ont, lex, first, second):
            case pkg.unifier.Unified(result):
                status, detail = "ok", {"outcome": "unified", "result": result}
            case pkg.unifier.Coerced(result, relation, relatum):
                status, detail = "ok", {
                    "outcome": "coerced",
                    "result": result,
                    "relation": relation.name,
                    "relatum": relatum,
                }
            case pkg.unifier.Failed(left, right):
                status, detail = "failed", {"outcome": "failed", "left": left, "right": right}
        return [Record("unify", status, detail=detail)]

    return rep.emit(_attempt("unify", records))


def cmd_hempel(
    ont: Ontology, lex: Lexicon, rep: Reporter, h1: str, h2: str, observations: list[str]
) -> int:
    def records():
        sources = [
            text[len(LF_PREFIX):].strip()
            if text.startswith(LF_PREFIX)
            else pkg.logform.pretty(pkg.nlparser.parse_sentence(text, ont, lex))
            for text in (h1, h2)
        ]
        result = pkg.confirm.equivalence_check(sources[0], sources[1], ont, lex)
        c1, c2 = pkg.logform.pretty(result.canonical_first), pkg.logform.pretty(result.canonical_second)
        status = "ok" if result.equivalent else "not_equivalent"
        detail = {"equivalent": result.equivalent, "h1": c1, "h2": c2}
        out = [Record("hempel", status, c1 if result.equivalent else None, detail=detail)]
        for obs_text in observations:
            obs = pkg.confirm.parse_observation(obs_text, ont, lex)
            v1 = pkg.confirm.evaluate(result.canonical_first, obs, ont).name.capitalize()
            v2 = pkg.confirm.evaluate(result.canonical_second, obs, ont).name.capitalize()
            detail = {"observation": obs_text.strip(), "h1": v1, "h2": v2, "agree": v1 == v2}
            out.append(Record("hempel.observe", "ok" if v1 == v2 else "disagree", detail=detail))
        return out

    return rep.emit(_attempt("hempel", records))


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ontology", default=argparse.SUPPRESS, help="ontology file path")
    common.add_argument("--lexicon", default=argparse.SUPPRESS, help="lexicon file path")
    common.add_argument(
        "--format",
        choices=("human", "structured"),
        default=argparse.SUPPRESS,
        help="output format (default: human)",
    )

    parser = argparse.ArgumentParser(prog="ontologik", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="type a sentence or logical form")
    p.add_argument("text", help=f"sentence, or logical form prefixed with {LF_PREFIX}")

    p = sub.add_parser("parse", parents=[common], help="show the untyped logical form")
    p.add_argument("text")

    p = sub.add_parser("aor", parents=[common], help="judge an adjective order")
    p.add_argument("adjectives", nargs="*")
    p.add_argument("--noun", required=True)

    p = sub.add_parser("unify", parents=[common], help="unify two type names")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("hempel", parents=[common], help="compare two hypotheses")
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument(
        "--observe",
        action="append",
        default=[],
        metavar="OBS",
        help='observation like "raven: black" (repeatable)',
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    rep = Reporter(getattr(args, "format", None) or "human")
    session = _attempt(args.command, lambda: _load_session(args), "load_error")
    if isinstance(session, list):
        return rep.emit(session)
    ont, lex = session
    match args.command:
        case "analyze":
            return cmd_analyze(ont, lex, rep, args.text)
        case "parse":
            return cmd_parse(ont, lex, rep, args.text)
        case "aor":
            return cmd_aor(ont, lex, rep, args.adjectives, args.noun)
        case "unify":
            return cmd_unify(ont, lex, rep, args.first, args.second)
        case "hempel":
            return cmd_hempel(ont, lex, rep, args.h1, args.h2, args.observe)
    return EXIT_PARSE  # pragma: no cover


def run():  # console-script entry point, and python -m ontologik
    sys.exit(main())


if __name__ == "__main__":
    run()
