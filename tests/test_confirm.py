import pytest

from ontologik import (
    ConfirmationVerdict,
    HypothesisShapeError,
    LexiconError,
    Observation,
    OntologyError,
    UnknownTypeError,
    canonicalize,
    equivalence_check,
    evaluate,
    parse_lf,
    parse_observation,
    pretty,
)

V = ConfirmationVerdict

H1 = "(A x)(raven(x) -> black(x))"
H2 = "(A x)((! black(x)) -> (! raven(x)))"


@pytest.fixture()
def raven_hypothesis(ont, lex):
    return canonicalize(parse_lf(H1), ont, lex)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "object_type, literals, verdict",
    [
        ("raven", (("black", True),), V.CONFIRMS),
        ("raven", (("black", False),), V.DISCONFIRMS),
        ("ball", (("red", True),), V.NEUTRAL),
        ("ball", (("black", True),), V.NEUTRAL),
        ("raven", (), V.NEUTRAL),
        ("raven", (("red", True),), V.NEUTRAL),
        ("person", (("black", False),), V.NEUTRAL),
        ("entity", (("black", True),), V.NEUTRAL),
    ],
)
def test_nicod_verdicts(ont, raven_hypothesis, object_type, literals, verdict):
    assert evaluate(raven_hypothesis, Observation(object_type, literals), ont) is verdict


def test_subtype_instances_fall_under_the_restriction(ont, lex):
    birds_black = canonicalize(parse_lf("(A x)(bird(x) -> black(x))"), ont, lex)
    assert evaluate(birds_black, Observation("raven", (("black", True),)), ont) is V.CONFIRMS
    assert evaluate(birds_black, Observation("raven", (("black", False),)), ont) is V.DISCONFIRMS
    assert evaluate(birds_black, Observation("living", (("black", True),)), ont) is V.NEUTRAL


def test_extra_literals_do_not_distract(ont, raven_hypothesis):
    obs = Observation("raven", (("red", False), ("black", True)))
    assert evaluate(raven_hypothesis, obs, ont) is V.CONFIRMS


def test_evaluate_requires_a_known_observation_type(ont, raven_hypothesis):
    with pytest.raises(UnknownTypeError):
        evaluate(raven_hypothesis, Observation("unicorn", ()), ont)


@pytest.mark.parametrize(
    "source",
    [
        "(A x)(raven(x) -> black(x))",  # membership never lifted
        "(E x :: raven)(black(x))",  # wrong quantifier
        "(A x)(black(x))",  # no restriction
        "(A x :: raven)((! black(x)))",  # negative literal
        "(A x :: raven)(want(x, x))",  # not unary
        "(A x :: raven)(and (black(x)) (red(x)))",  # not a single literal
    ],
)
def test_shape_rejections(ont, source):
    with pytest.raises(HypothesisShapeError, match="restricted universal"):
        evaluate(parse_lf(source), Observation("raven", ()), ont)


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------


def test_hypothesis_and_contrapositive_are_equivalent(ont, lex):
    result = equivalence_check(H1, H2, ont, lex)
    assert result.equivalent
    assert pretty(result.canonical_first) == "(A x :: raven)(black(x))"
    assert pretty(result.canonical_second) == "(A x :: raven)(black(x))"


def test_equivalence_is_up_to_variable_renaming(ont, lex):
    result = equivalence_check(H1, "(A y)(raven(y) -> black(y))", ont, lex)
    assert result.equivalent


def test_equivalence_reads_a_1000_binder_prefix(ont, lex):
    binders = "".join(f"(E x{i} :: person)" for i in range(1000))
    source = binders + "(and " + " ".join(f"(loud(x{i}))" for i in range(1000)) + ")"
    renamed = source.replace("x", "y")
    changed = renamed.replace("(loud(y999))", "(articulate(y999))")
    assert equivalence_check(source, renamed, ont, lex).equivalent
    assert not equivalence_check(source, changed, ont, lex).equivalent


def test_different_hypotheses_are_not_equivalent(ont, lex):
    assert not equivalence_check(H1, "(A x)(raven(x) -> red(x))", ont, lex).equivalent
    assert not equivalence_check(H1, "(A x)(bird(x) -> black(x))", ont, lex).equivalent


def test_equivalent_hypotheses_agree_everywhere(ont, lex):
    result = equivalence_check(H1, H2, ont, lex)
    predicates = ("black", "red")
    for object_type in tuple(ont.parent):
        cases = [Observation(object_type, ())]
        cases += [
            Observation(object_type, ((pred, polarity),))
            for pred in predicates
            for polarity in (True, False)
        ]
        for obs in cases:
            first = evaluate(result.canonical_first, obs, ont)
            second = evaluate(result.canonical_second, obs, ont)
            assert first is second, (object_type, obs.literals)


# ----------------------------------------------------------------------
# observation text
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, object_type, literals",
    [
        ("raven: black", "raven", (("black", True),)),
        ("raven: black=false", "raven", (("black", False),)),
        ("ball: red=true, black=false", "ball", (("red", True), ("black", False))),
        ("  raven :  black = false ", "raven", (("black", False),)),
        ("raven:", "raven", ()),
    ],
)
def test_parse_observation(ont, lex, text, object_type, literals):
    obs = parse_observation(text, ont, lex)
    assert obs.object_type == object_type
    assert obs.literals == literals


def test_polarity_lookup():
    obs = Observation("raven", (("black", False), ("red", True)))
    assert obs.polarity_of("black") is False
    assert obs.polarity_of("red") is True
    assert obs.polarity_of("loud") is None


@pytest.mark.parametrize(
    "text, error, fragment",
    [
        ("no colon here", OntologyError, "malformed observation"),
        ("raven: 1black", LexiconError, "malformed observation literal"),
        ("raven: sings", LexiconError, "unknown predicate 'sings'"),
        ("raven: black, black=false", LexiconError, "repeated"),
    ],
)
def test_parse_observation_rejections(ont, lex, text, error, fragment):
    with pytest.raises(error, match=fragment):
        parse_observation(text, ont, lex)


def test_parse_observation_requires_known_type(ont, lex):
    with pytest.raises(UnknownTypeError):
        parse_observation("unicorn: black", ont, lex)
