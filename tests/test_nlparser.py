import pytest

from ontologik import (
    SentenceError,
    alpha_equal,
    analyze,
    parse_lf,
    parse_sentence,
    pretty,
)

# ----------------------------------------------------------------------
# copular sentences
# ----------------------------------------------------------------------


def test_copular_with_article_noun_and_adjective(ont, lex):
    got = parse_sentence("Julie is an articulate person", ont, lex)
    assert got == parse_lf("(E! Julie)(and (person(Julie)) (articulate(Julie)))")


def test_copular_bare_adjective(ont, lex):
    got = parse_sentence("Julie is articulate", ont, lex)
    assert got == parse_lf("(E! Julie)(articulate(Julie))")


def test_copular_accepts_multiple_adjectives(ont, lex):
    got = parse_sentence("Julie is a loud articulate person", ont, lex)
    assert got == parse_lf(
        "(E! Julie)(and (person(Julie)) (loud(Julie)) (articulate(Julie)))"
    )


def test_copular_is_case_insensitive_on_the_name(ont, lex):
    assert parse_sentence("julie is beautiful", ont, lex) == parse_sentence(
        "Julie is beautiful", ont, lex
    )


def test_trailing_punctuation_is_ignored(ont, lex):
    assert parse_sentence("Julie is articulate.", ont, lex) == parse_sentence(
        "Julie is articulate", ont, lex
    )
    assert parse_sentence("Julie is articulate !", ont, lex) == parse_sentence(
        "Julie is articulate", ont, lex
    )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("Bob is loud", "unknown name 'bob'"),
        ("Julie is a person articulate", "noun 'person' must come last"),
        ("Julie is a", "predicates nothing"),
        ("Julie is zumbling", "unknown content word 'zumbling'"),
    ],
)
def test_copular_rejections(ont, lex, text, fragment):
    with pytest.raises(SentenceError, match=fragment):
        parse_sentence(text, ont, lex)


# ----------------------------------------------------------------------
# transitive sentences
# ----------------------------------------------------------------------


def test_transitive_flagship(ont, lex):
    got = parse_sentence("The loud omelet wants another beer", ont, lex)
    assert got == parse_lf("(E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))")


def test_transitive_without_adjectives(ont, lex):
    got = parse_sentence("The person wants a beer", ont, lex)
    assert got == parse_lf("(E p)(E b)(and (person(p)) (beer(b)) (want(p, b)))")


def test_transitive_object_adjectives(ont, lex):
    got = parse_sentence("The person wants a red car", ont, lex)
    assert got == parse_lf("(E p)(E c)(and (person(p)) (car(c)) (red(c)) (want(p, c)))")


def test_transitive_variable_collision_bumps_a_counter(ont, lex):
    got = parse_sentence("The person wants another person", ont, lex)
    assert got == parse_lf("(E p)(E p2)(and (person(p)) (person(p2)) (want(p, p2)))")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("The loud omelet", "missing its verb"),
        ("The omelet zumbles a beer", "unknown content word 'zumbles'"),
        ("The omelet wants a beer today", "unexpected trailing words: today"),
        ("The omelet wants", "expected a noun"),
        ("The zumble wants a beer", "unknown content word 'zumble'"),
    ],
)
def test_transitive_rejections(ont, lex, text, fragment):
    with pytest.raises(SentenceError, match=fragment):
        parse_sentence(text, ont, lex)


# ----------------------------------------------------------------------
# universal sentences
# ----------------------------------------------------------------------


def test_universal_affirmative(ont, lex):
    got = parse_sentence("All ravens are black", ont, lex)
    assert got == parse_lf("(A x)(raven(x) -> black(x))")


def test_universal_contrapositive(ont, lex):
    got = parse_sentence("All non-black things are non-ravens", ont, lex)
    assert got == parse_lf("(A x)((! black(x)) -> (! raven(x)))")


def test_universal_plural_exception_table(ont, lex):
    got = parse_sentence("All people are beautiful", ont, lex)
    assert got == parse_lf("(A x)(person(x) -> beautiful(x))")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("All unicorns are black", "cannot resolve plural 'unicorns'"),
        ("All ravens are zumbly", "unknown content word 'zumbly'"),
        ("All ravens fly", "no pattern matches"),
        ("All non-black things are ravens", "no pattern matches"),
        ("All non-zumbly things are non-ravens", "unknown content word 'zumbly'"),
    ],
)
def test_universal_rejections(ont, lex, text, fragment):
    with pytest.raises(SentenceError, match=fragment):
        parse_sentence(text, ont, lex)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("text", ["", "   ", " . "])
def test_an_empty_sentence_is_named(ont, lex, text):
    with pytest.raises(SentenceError, match="^empty sentence$"):
        parse_sentence(text, ont, lex)


@pytest.mark.parametrize(
    "text",
    ["", "   ", "Wants the omelet a beer", "Omelet loud wants beer"],
)
def test_unmatched_sentences_are_rejected(ont, lex, text):
    with pytest.raises(SentenceError):
        parse_sentence(text, ont, lex)


# ----------------------------------------------------------------------
# composition: sentences and hand-written typed forms analyze alike
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "sentence, typed",
    [
        ("Julie is an articulate person", "(E! j :: person)(articulate(j))"),
        ("Julie is articulate", "(E! j :: person)(articulate(j))"),
        (
            "The loud omelet wants another beer",
            "(E p :: person)(E f :: omelet)(E b :: beer)"
            "(and (EATING(p, f)) (loud(p)) (want(p, b)))",
        ),
        ("All ravens are black", "(A x :: raven)(black(x))"),
        ("All non-black things are non-ravens", "(A x :: raven)(black(x))"),
    ],
)
def test_analysis_composes_over_parsing(ont, lex, sentence, typed):
    from_sentence = analyze(parse_sentence(sentence, ont, lex), ont, lex)
    from_lf = analyze(parse_lf(typed), ont, lex)
    assert alpha_equal(from_sentence.form, from_lf.form), pretty(from_sentence.form)
