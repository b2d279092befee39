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
table for irregulars. The leading tokens pick the shape, and that shape's
reader builds the form as it reads the content words.
"""
from __future__ import annotations

from .errors import SentenceError
from .lexicon import Lexicon
from .logform import Atom, Form, Implies, Not, Quant, QuantKind, conj
from .ontology import Ontology, TypeName

PLURAL_EXCEPTIONS = {"people": "person"}

_ARTICLES = {"a", "an", "another"}


def parse_sentence(text: str, ont: Ontology, lex: Lexicon) -> Form:
    """Translate one sentence into an untyped logical form.

    Dispatch is deterministic: the leading tokens decide the shape, and a
    sentence that fits none of the shapes raises :class:`SentenceError`.
    """
    words = _tokenize(text)
    if not words:
        raise SentenceError("empty sentence")
    if words[0] == "all":
        if len(words) > 1 and words[1].startswith("non-"):
            return _contrapositive(words, ont, lex, text)
        return _affirmative(words, ont, lex, text)
    if len(words) >= 2 and words[1] == "is":
        return _copular(words, ont, lex)
    if words[0] == "the":
        return _transitive(words, ont, lex)
    raise SentenceError(f"no pattern matches '{text.strip()}'")


# ----------------------------------------------------------------------
# per-shape readers
# ----------------------------------------------------------------------


def _copular(words: list[str], ont: Ontology, lex: Lexicon) -> Form:
    by_lower = {name.lower(): name for name in lex.names}
    name = by_lower.get(words[0])
    if name is None:
        raise SentenceError(f"unknown name '{words[0]}'")
    rest = words[2:]
    if rest and rest[0] in _ARTICLES:
        rest = rest[1:]
    parts: list[Form] = []  # the noun, if any, then the adjectives in order
    for i, word in enumerate(rest):
        if _is_adjective(word, lex):
            parts.append(Atom(word, (name,)))
        elif word in ont:
            if i != len(rest) - 1:
                raise SentenceError(f"noun '{word}' must come last")
            parts.insert(0, Atom(word, (name,)))
        else:
            raise SentenceError(f"unknown content word '{word}'")
    if not parts:
        raise SentenceError("copular sentence predicates nothing")
    return Quant(QuantKind.EXISTS_UNIQUE, name, None, conj(parts))


def _transitive(words: list[str], ont: Ontology, lex: Lexicon) -> Form:
    subject_adjectives, i = _take_adjectives(words, 1, lex)
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
    # Each referent is named by its noun's initial; the object's takes a 2
    # when the two initials are the same.
    v1, v2 = subject_noun[0], object_noun[0]
    if v2 == v1:
        v2 += "2"
    parts: list[Form] = [Atom(subject_noun, (v1,)), Atom(object_noun, (v2,))]
    parts.extend(Atom(adj, (v1,)) for adj in subject_adjectives)
    parts.extend(Atom(adj, (v2,)) for adj in object_adjectives)
    parts.append(Atom(verb, (v1, v2)))
    return Quant(QuantKind.EXISTS, v1, None, Quant(QuantKind.EXISTS, v2, None, conj(parts)))


def _affirmative(words: list[str], ont: Ontology, lex: Lexicon, text: str) -> Form:
    if len(words) != 4 or words[2] != "are":
        raise SentenceError(f"no pattern matches '{text.strip()}'")
    noun = _singularize(words[1], ont)
    adjective = words[3]
    if not _is_adjective(adjective, lex):
        raise SentenceError(f"unknown content word '{adjective}'")
    return Quant(
        QuantKind.FORALL, "x", None, Implies(Atom(noun, ("x",)), Atom(adjective, ("x",)))
    )


def _contrapositive(words: list[str], ont: Ontology, lex: Lexicon, text: str) -> Form:
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
    return Quant(
        QuantKind.FORALL, "x", None, Implies(Not(Atom(adjective, ("x",))), Not(Atom(noun, ("x",))))
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
    for candidate in (word[:-1], word) if word.endswith("s") else (word,):
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
