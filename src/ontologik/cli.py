"""Command-line front end.

Subcommands::

    analyze  one sentence (or @lf:-prefixed logical form): type it fully,
             show the derivation trace and any recovered missing text
    parse    one sentence: show the untyped logical form (debugging aid)
    aor      judge an adjective order against a noun
    unify    unify two type names
    hempel   canonicalize two hypotheses, compare them, and evaluate
             observations against both

Exit codes: 0 success, 2 semantic or type failure, 3 parse or load failure.

``--format structured`` switches from human-readable text to one JSON
record per result line, each carrying the same five fields (command,
status, canonical, trace, glosses) plus a command-specific detail object.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .aor import Accepted, TypeFailure, Violation, check_order
from .confirm import ConfirmationVerdict, equivalence_check, evaluate, parse_observation
from .errors import (
    CanonicalizationError,
    HypothesisShapeError,
    LexiconError,
    LFSyntaxError,
    OntologyError,
    SentenceError,
    TypeCheckError,
    UnknownTypeError,
)
from .lexicon import Lexicon, load_lexicon
from .logform import parse_lf, pretty
from .nlparser import parse_sentence
from .ontology import Ontology, load_ontology
from .unifier import Coerced, Failed, Unified, analyze, missing_text_report, unify_types

EXIT_OK = 0
EXIT_SEMANTIC = 2
EXIT_PARSE = 3

# Failures of vocabulary, syntax, or resource loading.
_PARSE_ERRORS = (
    OntologyError,
    LexiconError,
    LFSyntaxError,
    SentenceError,
    CanonicalizationError,
    HypothesisShapeError,
    UnknownTypeError,
    OSError,
)

LF_PREFIX = "@lf:"


class Reporter:
    """Writes either prose or line-delimited JSON records."""

    def __init__(self, output_format: str):
        self.structured = output_format == "structured"

    def record(self, command: str, status: str, *, canonical=None, trace=None, glosses=None, detail=None):
        if self.structured:
            print(
                json.dumps(
                    {
                        "command": command,
                        "status": status,
                        "canonical": canonical,
                        "trace": [
                            {
                                "op": s.op,
                                "subject": s.subject,
                                "detail": s.detail,
                                "outcome": s.outcome,
                            }
                            for s in (trace.steps if trace is not None else [])
                        ],
                        "glosses": list(glosses or []),
                        "detail": detail or {},
                    }
                )
            )

    def say(self, text: str):
        if not self.structured:
            print(text)

    def error(self, command: str, status: str, message: str):
        if self.structured:
            self.record(command, status, detail={"message": message})
        else:
            print(f"error: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# session setup
# ----------------------------------------------------------------------


def _load_session(args: argparse.Namespace) -> tuple[Ontology, Lexicon]:
    ontology_path = Path(getattr(args, "ontology", None) or fixtures.ontology_path())
    lexicon_path = Path(getattr(args, "lexicon", None) or fixtures.lexicon_path())
    ont = load_ontology(ontology_path.read_text())
    lex = load_lexicon(lexicon_path.read_text(), ont)
    return ont, lex


def _read_form(text: str, ont: Ontology, lex: Lexicon):
    if text.startswith(LF_PREFIX):
        return parse_lf(text[len(LF_PREFIX):].strip())
    return parse_sentence(text, ont, lex)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_analyze(ont: Ontology, lex: Lexicon, rep: Reporter, text: str) -> int:
    try:
        form = _read_form(text, ont, lex)
        result = analyze(form, ont, lex)
    except TypeCheckError as err:
        rep.error("analyze", "type_error", str(err))
        return EXIT_SEMANTIC
    except _PARSE_ERRORS as err:
        rep.error("analyze", "parse_error", str(err))
        return EXIT_PARSE
    typed = pretty(result.form)
    rep.say(f"typed form: {typed}")
    rep.say("derivation:")
    for line in result.trace.format_lines():
        rep.say(f"  {line}")
    rep.say("missing text:")
    for line in missing_text_report(result).splitlines():
        rep.say(f"  {line}")
    rep.record(
        "analyze",
        "ok",
        canonical=typed,
        trace=result.trace,
        glosses=result.missing_text,
    )
    return EXIT_OK


def cmd_parse(ont: Ontology, lex: Lexicon, rep: Reporter, text: str) -> int:
    try:
        form = _read_form(text, ont, lex)
    except _PARSE_ERRORS as err:
        rep.error("parse", "parse_error", str(err))
        return EXIT_PARSE
    printed = pretty(form)
    rep.say(printed)
    rep.record("parse", "ok", canonical=printed)
    return EXIT_OK


def cmd_aor(ont: Ontology, lex: Lexicon, rep: Reporter, adjectives: list[str], noun: str) -> int:
    try:
        verdict = check_order(ont, lex, adjectives, noun)
    except _PARSE_ERRORS as err:
        rep.error("aor", "parse_error", str(err))
        return EXIT_PARSE
    match verdict:
        case Accepted(chain, coercions):
            rep.say("Accepted: " + " -> ".join(chain))
            for index, relation in coercions:
                rep.say(f"  (coerced at '{adjectives[index]}' via {relation})")
            rep.record(
                "aor",
                "ok",
                detail={
                    "verdict": "accepted",
                    "running_types": list(chain),
                    "coercions": [
                        {"adjective": adjectives[i], "relation": r} for i, r in coercions
                    ],
                },
            )
            return EXIT_OK
        case Violation(at_index, expected, running):
            rep.say(
                f"Violation at '{adjectives[at_index]}': "
                f"expected {expected}, running {running}"
            )
            rep.record(
                "aor",
                "violation",
                detail={
                    "verdict": "violation",
                    "adjective": adjectives[at_index],
                    "at_index": at_index,
                    "expected": expected,
                    "running": running,
                },
            )
            return EXIT_SEMANTIC
        case TypeFailure(at_index):
            rep.say(f"Type failure at '{adjectives[at_index]}'")
            rep.record(
                "aor",
                "type_failure",
                detail={
                    "verdict": "type_failure",
                    "adjective": adjectives[at_index],
                    "at_index": at_index,
                },
            )
            return EXIT_SEMANTIC
    return EXIT_SEMANTIC  # pragma: no cover


def cmd_unify(ont: Ontology, lex: Lexicon, rep: Reporter, first: str, second: str) -> int:
    try:
        outcome = unify_types(ont, lex, first, second)
    except _PARSE_ERRORS as err:
        rep.error("unify", "parse_error", str(err))
        return EXIT_PARSE
    match outcome:
        case Unified(result):
            rep.say(f"Unified {result}")
            rep.record("unify", "ok", detail={"outcome": "unified", "result": result})
            return EXIT_OK
        case Coerced(result, relation, relatum):
            rep.say(f"Coerced {result} via {relation.name}({result}, {relatum})")
            rep.record(
                "unify",
                "ok",
                detail={
                    "outcome": "coerced",
                    "result": result,
                    "relation": relation.name,
                    "relatum": relatum,
                },
            )
            return EXIT_OK
        case Failed(left, right):
            rep.say("Failed")
            rep.record(
                "unify",
                "failed",
                detail={"outcome": "failed", "left": left, "right": right},
            )
            return EXIT_SEMANTIC
    return EXIT_SEMANTIC  # pragma: no cover


def cmd_hempel(
    ont: Ontology,
    lex: Lexicon,
    rep: Reporter,
    h1: str,
    h2: str,
    observations: list[str],
) -> int:
    try:
        sources = [
            text[len(LF_PREFIX):].strip()
            if text.startswith(LF_PREFIX)
            else pretty(parse_sentence(text, ont, lex))
            for text in (h1, h2)
        ]
        result = equivalence_check(sources[0], sources[1], ont, lex)
        judged = []
        for obs_text in observations:
            obs = parse_observation(obs_text, ont, lex)
            v1 = evaluate(result.canonical_first, obs, ont)
            v2 = evaluate(result.canonical_second, obs, ont)
            judged.append((obs_text.strip(), obs, v1, v2))
    except _PARSE_ERRORS as err:
        rep.error("hempel", "parse_error", str(err))
        return EXIT_PARSE

    c1, c2 = pretty(result.canonical_first), pretty(result.canonical_second)
    rep.say(f"h1 canonical: {c1}")
    rep.say(f"h2 canonical: {c2}")
    rep.say(f"equivalent: {'yes' if result.equivalent else 'no'}")
    rep.record(
        "hempel",
        "ok" if result.equivalent else "not_equivalent",
        canonical=c1 if result.equivalent else None,
        detail={"equivalent": result.equivalent, "h1": c1, "h2": c2},
    )
    all_agree = True
    for text, _, v1, v2 in judged:
        agree = v1 is v2
        all_agree = all_agree and agree
        rep.say(
            f"{text}: h1 {_verdict_name(v1)}, h2 {_verdict_name(v2)}"
            + ("" if agree else "  [disagree]")
        )
        rep.record(
            "hempel.observe",
            "ok" if agree else "disagree",
            detail={
                "observation": text,
                "h1": _verdict_name(v1),
                "h2": _verdict_name(v2),
                "agree": agree,
            },
        )
    return EXIT_OK if result.equivalent and all_agree else EXIT_SEMANTIC


def _verdict_name(verdict: ConfirmationVerdict) -> str:
    return verdict.name.capitalize()


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
    try:
        ont, lex = _load_session(args)
    except _PARSE_ERRORS as err:
        rep.error(args.command, "load_error", str(err))
        return EXIT_PARSE

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


def run():  # console-script entry point
    sys.exit(main())
