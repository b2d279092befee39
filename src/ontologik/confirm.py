"""Instance confirmation against universal hypotheses.

The dissolution of the classic paradox: once type membership lives in the
quantifier restriction instead of predicate position, a hypothesis and its
contrapositive canonicalize to the same form, and that one form decides
which observations bear on it at all. Observations of objects outside the
restriction are neutral by construction; nothing about a red ball can
confirm anything about ravens. Its records are immutable slotted classes.
"""
from __future__ import annotations

import re
from enum import Enum, auto

from ._value import Value
from .errors import HypothesisShapeError, LexiconError, OntologyError
from .lexicon import Lexicon
from .logform import Atom, CanonicalForm, Quant, QuantKind, alpha_equal, canonicalize, parse_lf, pretty
from .ontology import Ontology, TypeName


class Observation(Value):
    """One observed object: its type and the predicate literals recorded
    for it. Polarity True means the predicate held."""

    __slots__ = ("object_type", "literals")

    def polarity_of(self, pred: str) -> bool | None:
        for name, polarity in self.literals:
            if name == pred:
                return polarity
        return None


class ConfirmationVerdict(Enum):
    CONFIRMS = auto()
    DISCONFIRMS = auto()
    NEUTRAL = auto()


class EquivalenceResult(Value):
    __slots__ = ("equivalent", "canonical_first", "canonical_second")


def evaluate(
    hypothesis: CanonicalForm, obs: Observation, ont: Ontology
) -> ConfirmationVerdict:
    """Nicod-style check of one observation against a canonical hypothesis.

    The hypothesis must be a single restricted universal over one positive
    unary literal, the shape canonicalization gives well-typed universal
    statements. Anything else is rejected loudly.
    """
    restriction, pred = _hypothesis_shape(hypothesis)
    if not ont.subsumes(restriction, ont.require(obs.object_type)):
        return ConfirmationVerdict.NEUTRAL
    polarity = obs.polarity_of(pred)
    if polarity is None:
        return ConfirmationVerdict.NEUTRAL
    return ConfirmationVerdict.CONFIRMS if polarity else ConfirmationVerdict.DISCONFIRMS


def _hypothesis_shape(hypothesis: CanonicalForm) -> tuple[TypeName, str]:
    match hypothesis:
        case Quant(QuantKind.FORALL, var, vtype, Atom(pred, args)) if (
            vtype is not None and args == (var,)
        ):
            return vtype, pred
    raise HypothesisShapeError(
        "hypothesis must be a restricted universal over one positive unary "
        f"literal, got: {pretty(hypothesis)}"
    )


def equivalence_check(
    first_source: str, second_source: str, ont: Ontology, lex: Lexicon
) -> EquivalenceResult:
    """Parse and canonicalize two hypothesis texts and compare them."""
    c1 = canonicalize(parse_lf(first_source), ont, lex)
    c2 = canonicalize(parse_lf(second_source), ont, lex)
    return EquivalenceResult(alpha_equal(c1, c2), c1, c2)


# ----------------------------------------------------------------------
# observation text format:  <type>: <pred>[=true|false][, ...]
# ----------------------------------------------------------------------

_OBS_RE = re.compile(r"\s*([a-z_]\w*)\s*:\s*(.*)$")
_LIT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:=\s*(true|false))?$")


def parse_observation(text: str, ont: Ontology, lex: Lexicon) -> Observation:
    """Parse "raven: black" or "ball: red=true, heavy=false" style text."""
    m = _OBS_RE.match(text)
    if not m:
        raise OntologyError(f"malformed observation '{text.strip()}'")
    object_type, rest = m.group(1), m.group(2).strip()
    ont.require(object_type)
    literals: list[tuple[str, bool]] = []
    if rest:
        for part in rest.split(","):
            lm = _LIT_RE.match(part.strip())
            if not lm:
                raise LexiconError(f"malformed observation literal '{part.strip()}'")
            pred, polarity = lm.group(1), lm.group(2) != "false"
            if pred not in lex.signatures:
                raise LexiconError(f"unknown predicate '{pred}' in observation")
            if any(name == pred for name, _ in literals):
                raise LexiconError(f"predicate '{pred}' repeated in observation")
            literals.append((pred, polarity))
    return Observation(object_type, tuple(literals))
