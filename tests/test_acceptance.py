"""End-to-end acceptance checks.

Each test prints one PASS/FAIL verdict line straight to the terminal
(bypassing capture) so a plain pytest run shows the scorecard:

    [acceptance] 1 PASS sentence equivalence ...
"""
import re
from contextlib import contextmanager

from ontologik import (
    Atom,
    ConfirmationVerdict,
    Observation,
    alpha_equal,
    analyze,
    atoms,
    equivalence_check,
    evaluate,
    parse_lf,
    parse_sentence,
    pretty,
)
from ontologik.cli import main
from ontologik.forms import read_prefix

import test_aor
import test_lexicon
import test_logform
import test_ontology
import test_unifier


@contextmanager
def verdict(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[acceptance] {number} FAIL {label}")
        raise
    with capsys.disabled():
        print(f"\n[acceptance] {number} PASS {label}")


def test_criterion_1_sentence_equivalence(ont, lex, capsys):
    with verdict(capsys, 1, "sentence equivalence: article and bare copulars type alike"):
        long_form = analyze(parse_sentence("Julie is an articulate person", ont, lex), ont, lex)
        short_form = analyze(parse_sentence("Julie is articulate", ont, lex), ont, lex)
        target = parse_lf("(E! j :: person)(articulate(j))")
        assert alpha_equal(long_form.form, short_form.form)
        assert alpha_equal(long_form.form, target)
        assert alpha_equal(short_form.form, target)


def test_criterion_2_loud_omelet_coercion(ont, lex, capsys):
    with verdict(capsys, 2, "metonymic coercion re-types the omelet and recovers the eater"):
        got = analyze(parse_sentence("The loud omelet wants another beer", ont, lex), ont, lex)

        prefix, _ = read_prefix(got.form)
        bound = [(var, vtype) for _, var, vtype in prefix]
        referent = bound[0]
        assert referent[1] == "person"  # the wanter ends up a person
        relata = [(v, t) for v, t in bound[1:] if t == "omelet"]
        assert len(relata) == 1  # exactly one fresh omelet-typed relatum
        relatum_var = relata[0][0]
        assert Atom("EATING", (referent[0], relatum_var)) in list(atoms(got.form))

        [gloss] = got.missing_text
        assert "person" in gloss and "omelet" in gloss

        reductions = [(s.detail, s.outcome) for s in got.trace.steps if s.subject == referent[0]]
        assert reductions == [
            ("(animal • person)", "person"),
            ("(omelet • person)", "coerced: person via EATING(person, omelet)"),
        ]


def test_criterion_3_adjective_order(capsys):
    with verdict(capsys, 3, "adjective orders: generalizing out accepted, narrowing out refused"):
        code = main(["aor", "beautiful", "red", "--noun", "car"])
        accepted_out = capsys.readouterr().out
        assert code == 0
        assert "car -> physical -> entity" in accepted_out

        code = main(["aor", "red", "beautiful", "--noun", "car"])
        violation_out = capsys.readouterr().out
        assert code == 2
        assert "Violation at 'red'" in violation_out


def test_criterion_4_raven_equivalence(capsys):
    with verdict(capsys, 4, "a hypothesis and its contrapositive share one canonical form"):
        code = main([
            "hempel",
            "--h1", "All ravens are black",
            "--h2", "All non-black things are non-ravens",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "equivalent: yes" in out
        canonical = re.compile(r"\(A (\w+) :: raven\)\(black\(\1\)\)")
        assert len(canonical.findall(out)) == 2


def test_criterion_5_paradox_dissolution(ont, lex, capsys):
    with verdict(capsys, 5, "verdicts agree on every observation; a red ball is neutral"):
        result = equivalence_check(
            pretty(parse_sentence("All ravens are black", ont, lex)),
            pretty(parse_sentence("All non-black things are non-ravens", ont, lex)),
            ont,
            lex,
        )
        assert result.equivalent

        checked = 0
        for object_type in tuple(ont.parent):
            for pred in ("black", "red", None):
                for polarity in (True, False):
                    literals = () if pred is None else ((pred, polarity),)
                    obs = Observation(object_type, literals)
                    first = evaluate(result.canonical_first, obs, ont)
                    second = evaluate(result.canonical_second, obs, ont)
                    assert first is second, (object_type, literals)
                    checked += 1
        assert checked == len(tuple(ont.parent)) * 6

        red_ball = Observation("ball", (("red", True),))
        assert evaluate(result.canonical_first, red_ball, ont) is ConfirmationVerdict.NEUTRAL
        assert evaluate(result.canonical_second, red_ball, ont) is ConfirmationVerdict.NEUTRAL


def test_criterion_6_property_suites(ont, lex, capsys):
    with verdict(capsys, 6, "oracle-backed property suites run clean"):
        # (a) subsumption vs the ancestor-chain oracle
        test_ontology.test_subsumption_matches_oracle_on_random_trees()
        test_ontology.test_partial_order_axioms_on_random_trees()
        # (a') ordered coercion candidates vs a scan of every relation
        test_lexicon.test_coercion_candidates_match_the_scan_oracle_on_random_trees()
        # (b) parse/pretty round-trip
        test_logform.test_round_trip_on_random_forms()
        # (c) canonicalization idempotence, and meaning vs the finite-model oracle
        test_logform.test_canonicalize_idempotent_on_random_forms(ont, lex)
        test_logform.test_canonicalize_preserves_meaning_in_finite_models(ont, lex)
        # (d) adjective-order verdicts vs the monotone oracle
        test_aor.test_verdicts_match_the_monotone_oracle_on_random_draws()
        # (e) unification commutes up to role on every reference type pair
        test_unifier.test_unify_commutes_up_to_role_on_all_reference_pairs(ont, lex)
