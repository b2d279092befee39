"""Adjective-ordering restrictions via expectation commitment.

Each adjective commits the noun phrase to the type its single argument
expects. Working from the adjective nearest the noun outward, the running
type may always generalize (casting up the tree is free) but may never be
forced back down: once "beautiful" has committed the phrase to entity, an
outer "red" demanding physical has nothing sound to apply to. Incomparable
expectations get one chance at a metonymic bridge before failing.
Verdicts are immutable slotted classes.
"""
from __future__ import annotations

from ._value import Value, setters
from .errors import LexiconError
from .lexicon import Lexicon
from .ontology import Ontology, SubsumptionVerdict, TypeName

class Accepted(Value):
    """The order is admissible. ``running_types`` starts at the noun and adds
    one commitment per adjective, innermost first."""

    __slots__ = ("running_types", "coercions")

    def __init__(self, running_types: tuple[TypeName, ...], coercions: tuple[tuple[int, str], ...] = ()):
        _accepted_running_types(self, running_types)
        _accepted_coercions(self, coercions)  # (adjective index, relation name)


class Violation(Value):
    """An adjective demanded a strictly more specific type than the running
    commitment. ``at_index`` points into the outermost-first input list."""

    __slots__ = ("at_index", "expected", "running")


class TypeFailure(Value):
    """An adjective's expectation was incomparable with the running type and
    no salient relation bridges the two."""

    __slots__ = ("at_index",)


AORVerdict = Accepted | Violation | TypeFailure
_accepted_running_types, _accepted_coercions = setters(Accepted)


def check_order(
    ont: Ontology, lex: Lexicon, adjectives: list[str], noun: TypeName
) -> AORVerdict:
    """Judge one adjective order. ``adjectives`` reads outermost first, the
    way the phrase is written: ["beautiful", "red"] for "beautiful red car"."""
    ont.require(noun)
    expectations = []
    for adj in adjectives:
        sig = lex.signatures.get(adj)
        if sig is None:
            raise LexiconError(f"unknown predicate '{adj}'")
        if sig.arity != 1:
            raise LexiconError(f"'{adj}' is not unary and cannot modify a noun")
        expectations.append(sig.arg_types[0])

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

