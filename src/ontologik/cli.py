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
prints only ``error: <message>`` on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import fixtures
from .aor import Accepted, TypeFailure, Violation, check_order
from .confirm import equivalence_check, evaluate, parse_observation
from .errors import LexiconError, OntologikError, OntologyError, TypeCheckError
from .lexicon import Lexicon, load_lexicon
from .logform import parse_lf, pretty
from .nlparser import parse_sentence
from .ontology import Ontology, load_ontology
from .unifier import Coerced, Failed, TraceStep, Unified, analyze, unify_types

EXIT_OK = 0
EXIT_SEMANTIC = 2  # the exit code of every status not in EXIT_CODES
EXIT_PARSE = 3
EXIT_CODES = {"ok": EXIT_OK, "parse_error": EXIT_PARSE, "load_error": EXIT_PARSE}

ERROR_STATUSES = {"type_error", "parse_error", "load_error"}
ERROR_FIELDS = ("line", "position", "name", "subject", "declared", "expectation")

LF_PREFIX = "@lf:"


@dataclass(slots=True)
class Record:
    """One result, as the structured format prints it."""

    command: str
    status: str
    canonical: str | None = None
    trace: list[TraceStep] = field(default_factory=list)
    glosses: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


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

    def emit(self, records: list[Record]) -> int:
        """Print ``records`` and return the highest exit code of their statuses."""
        code = EXIT_OK
        for record in records:
            if self.structured:
                print(json.dumps(asdict(record)))
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
    try:
        return compute()
    except TypeCheckError as err:
        status, error, message = "type_error", err, str(err)
    except (OntologikError, OSError) as err:
        status, error, message = failure, err, str(err)
    detail = {"message": message, "error": type(error).__name__}
    detail.update((key, getattr(error, key)) for key in ERROR_FIELDS if hasattr(error, key))
    return [Record(command, status, detail=detail)]


# ----------------------------------------------------------------------
# session setup
# ----------------------------------------------------------------------


def _read(path: Path, error: type[OntologikError]) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def _load_session(args: argparse.Namespace) -> tuple[Ontology, Lexicon]:
    ontology_path = Path(getattr(args, "ontology", None) or fixtures.ontology_path())
    lexicon_path = Path(getattr(args, "lexicon", None) or fixtures.lexicon_path())
    ont = load_ontology(_read(ontology_path, OntologyError))
    lex = load_lexicon(_read(lexicon_path, LexiconError), ont)
    return ont, lex


def _read_form(text: str, ont: Ontology, lex: Lexicon):
    if text.startswith(LF_PREFIX):
        return parse_lf(text[len(LF_PREFIX):].strip())
    return parse_sentence(text, ont, lex)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_analyze(ont: Ontology, lex: Lexicon, rep: Reporter, text: str) -> int:
    def records():
        result = analyze(_read_form(text, ont, lex), ont, lex)
        return [Record("analyze", "ok", result.text, result.trace.steps, result.missing_text)]

    return rep.emit(_attempt("analyze", records))


def cmd_parse(ont: Ontology, lex: Lexicon, rep: Reporter, text: str) -> int:
    def records():
        return [Record("parse", "ok", pretty(_read_form(text, ont, lex)))]

    return rep.emit(_attempt("parse", records))


def cmd_aor(ont: Ontology, lex: Lexicon, rep: Reporter, adjectives: list[str], noun: str) -> int:
    def records():
        match check_order(ont, lex, adjectives, noun):
            case Accepted(chain, coercions):
                coerced = [{"adjective": adjectives[i], "relation": r} for i, r in coercions]
                detail = {"verdict": "accepted", "running_types": list(chain), "coercions": coerced}
            case Violation(i, expected, running):
                detail = {
                    "verdict": "violation",
                    "adjective": adjectives[i],
                    "at_index": i,
                    "expected": expected,
                    "running": running,
                }
            case TypeFailure(i):
                detail = {"verdict": "type_failure", "adjective": adjectives[i], "at_index": i}
        status = "ok" if detail["verdict"] == "accepted" else detail["verdict"]
        return [Record("aor", status, detail=detail)]

    return rep.emit(_attempt("aor", records))


def cmd_unify(ont: Ontology, lex: Lexicon, rep: Reporter, first: str, second: str) -> int:
    def records():
        match unify_types(ont, lex, first, second):
            case Unified(result):
                status, detail = "ok", {"outcome": "unified", "result": result}
            case Coerced(result, relation, relatum):
                status, detail = "ok", {
                    "outcome": "coerced",
                    "result": result,
                    "relation": relation.name,
                    "relatum": relatum,
                }
            case Failed(left, right):
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
            else pretty(parse_sentence(text, ont, lex))
            for text in (h1, h2)
        ]
        result = equivalence_check(sources[0], sources[1], ont, lex)
        c1, c2 = pretty(result.canonical_first), pretty(result.canonical_second)
        status = "ok" if result.equivalent else "not_equivalent"
        detail = {"equivalent": result.equivalent, "h1": c1, "h2": c2}
        out = [Record("hempel", status, c1 if result.equivalent else None, detail=detail)]
        for obs_text in observations:
            obs = parse_observation(obs_text, ont, lex)
            v1 = evaluate(result.canonical_first, obs, ont).name.capitalize()
            v2 = evaluate(result.canonical_second, obs, ont).name.capitalize()
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
