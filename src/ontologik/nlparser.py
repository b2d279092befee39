"""A deliberately small controlled-English front end.

Four sentence shapes are recognized, each mapping to one untyped logical
form; everything else is rejected rather than guessed at:

    Julie is an articulate person        (copular)
    The loud omelet wants another beer   (transitive)
    All ravens are black                 (universal affirmative)
    All non-black things are non-ravens  (universal contrapositive)

Matching is case-insensitive and ignores trailing punctuation. Content
words must already be known: adjectives and verbs in the lexicon, nouns in
the ontology, subjects of copulars among the declared proper names. Plural
nouns are resolved by stripping a trailing "s", with a small exception
table for irregulars. A matched pattern is an immutable slotted class.
"""
from __future__ import annotations

from enum import Enum, auto

from ._value import Value, _set
from .errors import SentenceError
from .lexicon import Lexicon
from .logform import Atom, Form, Implies, Not, Quant, QuantKind, conj
from .ontology import Ontology, TypeName

PLURAL_EXCEPTIONS = {"people": "person"}

_ARTICLES = {"a", "an", "another"}


class SentenceKind(Enum):
    COPULAR = auto()
    TRANSITIVE = auto()
    UNIVERSAL_AFFIRMATIVE = auto()
    UNIVERSAL_CONTRAPOSITIVE = auto()


class SentencePattern(Value):
    """Which shape matched and the content words each slot captured."""

    __slots__ = ("kind", "slots")
    __hash__ = None  # the slots are a dict, so hash() names the record

    def __init__(self, kind: SentenceKind, slots: dict[str, object]):
        _set(self, "kind", kind)
        _set(self, "slots", slots)


def parse_sentence(text: str, ont: Ontology, lex: Lexicon) -> Form:
    """Translate one sentence into an untyped logical form."""
    pattern = classify(text, ont, lex)
    s = pattern.slots
    match pattern.kind:
        case SentenceKind.COPULAR:
            var = s["name"]
            parts: list[Form] = []
            if s["noun"] is not None:
                parts.append(Atom(s["noun"], (var,)))
            parts.extend(Atom(adj, (var,)) for adj in s["adjectives"])
            return Quant(QuantKind.EXISTS_UNIQUE, var, None, conj(parts))
        case SentenceKind.TRANSITIVE:
            v1 = _variable_for(s["subject_noun"], taken=set())
            v2 = _variable_for(s["object_noun"], taken={v1})
            parts = [Atom(s["subject_noun"], (v1,)), Atom(s["object_noun"], (v2,))]
            parts.extend(Atom(adj, (v1,)) for adj in s["subject_adjectives"])
            parts.extend(Atom(adj, (v2,)) for adj in s["object_adjectives"])
            parts.append(Atom(s["verb"], (v1, v2)))
            body = conj(parts)
            return Quant(
                QuantKind.EXISTS, v1, None, Quant(QuantKind.EXISTS, v2, None, body)
            )
        case SentenceKind.UNIVERSAL_AFFIRMATIVE:
            return Quant(
                QuantKind.FORALL,
                "x",
                None,
                Implies(Atom(s["noun"], ("x",)), Atom(s["adjective"], ("x",))),
            )
        case SentenceKind.UNIVERSAL_CONTRAPOSITIVE:
            return Quant(
                QuantKind.FORALL,
                "x",
                None,
                Implies(
                    Not(Atom(s["adjective"], ("x",))),
                    Not(Atom(s["noun"], ("x",))),
                ),
            )
    raise SentenceError(f"no pattern matches '{text.strip()}'")  # pragma: no cover


def classify(text: str, ont: Ontology, lex: Lexicon) -> SentencePattern:
    """Decide which of the four patterns a sentence instantiates.

    Dispatch is deterministic: the leading tokens decide the pattern, and a
    sentence that fits none of the shapes raises :class:`SentenceError`.
    """
    words = _tokenize(text)
    if not words:
        raise SentenceError("empty sentence")
    if words[0] == "all":
        if len(words) > 1 and words[1].startswith("non-"):
            return _classify_contrapositive(words, ont, lex, text)
        return _classify_affirmative(words, ont, lex, text)
    if len(words) >= 2 and words[1] == "is":
        return _classify_copular(words, ont, lex)
    if words[0] == "the":
        return _classify_transitive(words, ont, lex)
    raise SentenceError(f"no pattern matches '{text.strip()}'")


# ----------------------------------------------------------------------
# per-pattern matchers
# ----------------------------------------------------------------------


def _classify_copular(words: list[str], ont: Ontology, lex: Lexicon) -> SentencePattern:
    by_lower = {name.lower(): name for name in lex.names}
    name = by_lower.get(words[0])
    if name is None:
        raise SentenceError(f"unknown name '{words[0]}'")
    rest = words[2:]
    if rest and rest[0] in _ARTICLES:
        rest = rest[1:]
    adjectives: list[str] = []
    noun: TypeName | None = None
    for i, word in enumerate(rest):
        if _is_adjective(word, lex):
            adjectives.append(word)
        elif word in ont:
            if i != len(rest) - 1:
                raise SentenceError(f"noun '{word}' must come last")
            noun = word
        else:
            raise SentenceError(f"unknown content word '{word}'")
    if not adjectives and noun is None:
        raise SentenceError("copular sentence predicates nothing")
    return SentencePattern(
        SentenceKind.COPULAR, {"name": name, "adjectives": adjectives, "noun": noun}
    )


def _classify_transitive(words: list[str], ont: Ontology, lex: Lexicon) -> SentencePattern:
    i = 1
    subject_adjectives, i = _take_adjectives(words, i, lex)
    subject_noun, i = _take_noun(words, i, ont)
    if i >= len(words):
        raise SentenceError("transitive sentence is missing its verb")
    verb = _resolve_verb(words[i], lex)
    i += 1
    if i < len(words) and words[i] in _ARTICLES:
        i += 1
    object_adjectives, i = _take_adjectives(words, i, lex)
    object_noun, i = _take_noun(words, i, ont)
    if i != len(words):
        raise SentenceError(f"unexpected trailing words: {' '.join(words[i:])}")
    return SentencePattern(
        SentenceKind.TRANSITIVE,
        {
            "subject_adjectives": subject_adjectives,
            "subject_noun": subject_noun,
            "verb": verb,
            "object_adjectives": object_adjectives,
            "object_noun": object_noun,
        },
    )


def _classify_affirmative(
    words: list[str], ont: Ontology, lex: Lexicon, text: str
) -> SentencePattern:
    if len(words) != 4 or words[2] != "are":
        raise SentenceError(f"no pattern matches '{text.strip()}'")
    noun = _singularize(words[1], ont)
    adjective = words[3]
    if not _is_adjective(adjective, lex):
        raise SentenceError(f"unknown content word '{adjective}'")
    return SentencePattern(
        SentenceKind.UNIVERSAL_AFFIRMATIVE, {"noun": noun, "adjective": adjective}
    )


def _classify_contrapositive(
    words: list[str], ont: Ontology, lex: Lexicon, text: str
) -> SentencePattern:
    if (
        len(words) != 5
        or words[2] != "things"
        or words[3] != "are"
        or not words[4].startswith("non-")
    ):
        raise SentenceError(f"no pattern matches '{text.strip()}'")
    adjective = words[1][4:]
    if not _is_adjective(adjective, lex):
        raise SentenceError(f"unknown content word '{adjective}'")
    noun = _singularize(words[4][4:], ont)
    return SentencePattern(
        SentenceKind.UNIVERSAL_CONTRAPOSITIVE, {"noun": noun, "adjective": adjective}
    )


# ----------------------------------------------------------------------
# word-level helpers
# ----------------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    words = text.lower().split()
    if words:
        words[-1] = words[-1].rstrip(".!?")
        if not words[-1]:
            words.pop()
    return words


def _is_adjective(word: str, lex: Lexicon) -> bool:
    sig = lex.signatures.get(word)
    return sig is not None and sig.arity == 1


def _take_adjectives(words: list[str], i: int, lex: Lexicon) -> tuple[list[str], int]:
    adjectives = []
    while i < len(words) and _is_adjective(words[i], lex):
        adjectives.append(words[i])
        i += 1
    return adjectives, i


def _take_noun(words: list[str], i: int, ont: Ontology) -> tuple[TypeName, int]:
    if i >= len(words):
        raise SentenceError("expected a noun")
    if words[i] not in ont:
        raise SentenceError(f"unknown content word '{words[i]}'")
    return words[i], i + 1


def _resolve_verb(word: str, lex: Lexicon) -> str:
    # third-person singular: strip the inflection to find the lexicon entry
    for candidate in (word[:-1] if word.endswith("s") else None, word):
        if candidate is not None:
            sig = lex.signatures.get(candidate)
            if sig is not None and sig.arity == 2:
                return candidate
    raise SentenceError(f"unknown content word '{word}'")


def _singularize(word: str, ont: Ontology) -> TypeName:
    if word in PLURAL_EXCEPTIONS:
        return PLURAL_EXCEPTIONS[word]
    if word.endswith("s") and word[:-1] in ont:
        return word[:-1]
    raise SentenceError(f"cannot resolve plural '{word}'")


def _variable_for(noun: str, taken: set[str]) -> str:
    base = noun[0]
    if base not in taken:
        return base
    n = 2
    while f"{base}{n}" in taken:
        n += 1
    return f"{base}{n}"
