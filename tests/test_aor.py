import random

import pytest

from ontologik import (
    Accepted,
    LexiconError,
    SubsumptionVerdict,
    TypeFailure,
    UnknownTypeError,
    Violation,
    check_order,
    load_lexicon,
    load_ontology,
)
from ontologik.lexicon import Lexicon, PredicateSignature

from oracles import oracle_order, random_tree, tree_source

# ----------------------------------------------------------------------
# single orders on the reference fixtures
# ----------------------------------------------------------------------


def test_generalizing_outward_is_accepted(ont, lex):
    verdict = check_order(ont, lex, ["beautiful", "red"], "car")
    assert verdict == Accepted(("car", "physical", "entity"))


def test_specializing_outward_is_a_violation(ont, lex):
    verdict = check_order(ont, lex, ["red", "beautiful"], "car")
    assert verdict == Violation(at_index=0, expected="physical", running="entity")


def test_empty_order_is_trivially_accepted(ont, lex):
    assert check_order(ont, lex, [], "car") == Accepted(("car",))


def test_repeating_an_adjective_holds_the_running_type(ont, lex):
    verdict = check_order(ont, lex, ["red", "red"], "car")
    assert verdict == Accepted(("car", "physical", "physical"))


def test_single_adjective_casts_up(ont, lex):
    assert check_order(ont, lex, ["beautiful"], "raven") == Accepted(("raven", "entity"))


def test_incomparable_expectation_coerces_when_bridged(ont, lex):
    # loud expects person; on an omelet the EATING bridge licenses the order
    verdict = check_order(ont, lex, ["loud"], "omelet")
    assert verdict == Accepted(("omelet", "person"), coercions=((0, "EATING"),))


def test_incomparable_expectation_fails_without_a_bridge(ont, lex):
    assert check_order(ont, lex, ["loud"], "car") == TypeFailure(at_index=0)


def test_violation_reports_the_outermost_offender(ont, lex):
    # innermost red commits to physical, beautiful lifts to entity, and the
    # outer red cannot come back down; index 0 is the outer red
    verdict = check_order(ont, lex, ["red", "beautiful", "red"], "car")
    assert verdict == Violation(at_index=0, expected="physical", running="entity")


@pytest.mark.parametrize(
    "adjective, noun, verdict, outcome",
    [
        ("red", "physical", SubsumptionVerdict.EQUAL, Accepted(("physical", "physical"))),
        ("red", "car", SubsumptionVerdict.FIRST_SUBSUMES_SECOND, Accepted(("car", "physical"))),
        ("red", "entity", SubsumptionVerdict.SECOND_SUBSUMES_FIRST,
         Violation(at_index=0, expected="physical", running="entity")),
        ("loud", "omelet", SubsumptionVerdict.INCOMPARABLE, Accepted(("omelet", "person"), coercions=((0, "EATING"),))),
        ("loud", "car", SubsumptionVerdict.INCOMPARABLE, TypeFailure(at_index=0)),
    ],
)
def test_each_subsumption_verdict_takes_its_branch(ont, lex, adjective, noun, verdict, outcome):
    assert ont.compare(lex.signatures[adjective].arg_types[0], noun) is verdict
    assert check_order(ont, lex, [adjective], noun) == outcome


def test_unknown_adjective_and_noun_are_loud_errors(ont, lex):
    with pytest.raises(LexiconError, match="unknown predicate 'shiny'"):
        check_order(ont, lex, ["shiny"], "car")
    with pytest.raises(UnknownTypeError):
        check_order(ont, lex, ["red"], "unicorn")
    with pytest.raises(LexiconError, match="not unary"):
        check_order(ont, lex, ["want"], "car")
    nullary = Lexicon({"z": PredicateSignature("z", ())})
    with pytest.raises(LexiconError, match="^'z' is not unary and cannot modify a noun$"):
        check_order(ont, nullary, ["z"], "car")


# ----------------------------------------------------------------------
# oracle-checked random draws
# ----------------------------------------------------------------------


def _random_lexicon(rng, nodes):
    preds = {}
    for i in range(6):
        preds[f"adj{i}"] = PredicateSignature(f"adj{i}", (rng.choice(nodes),))
    return Lexicon(signatures=preds, relations=[], names={})


def test_verdicts_match_the_monotone_oracle_on_random_draws():
    rng = random.Random(1105)
    for _ in range(500):
        parent = random_tree(rng, max_nodes=12)
        ont = load_ontology(tree_source(parent))
        nodes = list(parent)
        lex = _random_lexicon(rng, nodes)
        adjectives = [f"adj{rng.randrange(6)}" for _ in range(rng.randint(0, 4))]
        noun = rng.choice(nodes)
        expectations = [lex.signatures[a].arg_types[0] for a in adjectives]

        want = oracle_order(parent, expectations, noun)
        got = check_order(ont, lex, adjectives, noun)
        match got:
            case Accepted(chain, ()):
                assert want == ("accepted", chain)
            case Violation(i, expected, running):
                assert want == ("violation", i, expected, running)
            case TypeFailure(i):
                assert want == ("type_failure", i)
            case _:
                raise AssertionError(f"unexpected verdict {got!r}")


def test_accepted_chains_generalize_monotonically_on_random_draws():
    rng = random.Random(1106)
    for _ in range(200):
        parent = random_tree(rng, max_nodes=12)
        ont = load_ontology(tree_source(parent))
        nodes = list(parent)
        lex = _random_lexicon(rng, nodes)
        adjectives = [f"adj{rng.randrange(6)}" for _ in range(rng.randint(0, 4))]
        got = check_order(ont, lex, adjectives, rng.choice(nodes))
        if isinstance(got, Accepted):
            for tighter, looser in zip(got.running_types, got.running_types[1:]):
                assert ont.subsumes(looser, tighter)


def test_swapping_a_strict_chain_outward_is_rejected_on_random_draws():
    rng = random.Random(1107)
    checked = 0
    while checked < 150:
        parent = random_tree(rng, max_nodes=12)
        ont = load_ontology(tree_source(parent))
        nodes = list(parent)
        lex = _random_lexicon(rng, nodes)
        adjectives = [f"adj{i}" for i in rng.sample(range(6), rng.randint(2, 4))]
        noun = rng.choice(nodes)
        if not isinstance(check_order(ont, lex, adjectives, noun), Accepted):
            continue
        expectations = [lex.signatures[a].arg_types[0] for a in adjectives]
        if len(set(expectations)) != len(expectations):
            continue
        # accepted + distinct means strictly more general outward, so any
        # adjacent swap drags a strictly tighter expectation outward
        for i in range(len(adjectives) - 1):
            swapped = list(adjectives)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert not isinstance(check_order(ont, lex, swapped, noun), Accepted)
            checked += 1


def test_reference_reversal_pair_from_random_suite(ont, lex):
    # sanity anchor: the oracle agrees on the canonical beautiful/red pair
    assert oracle_order(
        dict(ont.parent), ["entity", "physical"], "car"
    ) == ("accepted", ("car", "physical", "entity"))
    assert oracle_order(
        dict(ont.parent), ["physical", "entity"], "car"
    ) == ("violation", 0, "physical", "entity")
