"""Adjective-ordering restrictions via expectation commitment.

Each adjective commits the noun phrase to the type its single argument
expects. Working from the adjective nearest the noun outward, the running
type may always generalize (casting up the tree is free) but may never be
forced back down: once "beautiful" has committed the phrase to entity, an
outer "red" demanding physical has nothing sound to apply to. Incomparable
expectations get one chance at a metonymic bridge before failing.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import LexiconError
from .lexicon import Lexicon
from .ontology import Ontology, SubsumptionVerdict, TypeName

@dataclass(frozen=True)
class Accepted:
    """The order is admissible. ``running_types`` starts at the noun and adds
    one commitment per adjective, innermost first."""

    running_types: tuple[TypeName, ...]
    coercions: tuple[tuple[int, str], ...] = ()  # (adjective index, relation name)


@dataclass(frozen=True)
class Violation:
    """An adjective demanded a strictly more specific type than the running
    commitment. ``at_index`` points into the outermost-first input list."""

    at_index: int
    expected: TypeName
    running: TypeName


@dataclass(frozen=True)
class TypeFailure:
    """An adjective's expectation was incomparable with the running type and
    no salient relation bridges the two."""

    at_index: int


AORVerdict = Accepted | Violation | TypeFailure


def check_order(
    ont: Ontology, lex: Lexicon, adjectives: list[str], noun: TypeName
) -> AORVerdict:
    """Judge one adjective order. ``adjectives`` reads outermost first, the
    way the phrase is written: ["beautiful", "red"] for "beautiful red car"."""
    ont.require(noun)
    expectations = []
    for adj in adjectives:
        expected = lex.expectation(adj, 1)  # raises for unknown adjectives
        if lex.signatures[adj].arity != 1:
            raise LexiconError(f"'{adj}' is not unary and cannot modify a noun")
        expectations.append(expected)

    running = noun
    chain = [noun]
    coercions: list[tuple[int, str]] = []
    for i in range(len(adjectives) - 1, -1, -1):  # innermost adjective first
        expected = expectations[i]
        match ont.compare(expected, running):
            case SubsumptionVerdict.EQUAL | SubsumptionVerdict.FIRST_SUBSUMES_SECOND:
                running = expected
            case SubsumptionVerdict.SECOND_SUBSUMES_FIRST:
                return Violation(at_index=i, expected=expected, running=running)
            case SubsumptionVerdict.INCOMPARABLE:
                candidates = lex.coercion_candidates(ont, expected, running)
                if not candidates:
                    return TypeFailure(at_index=i)
                coercions.append((i, candidates[0].name))
                running = expected
        chain.append(running)
    return Accepted(tuple(chain), tuple(coercions))

