import json
import random

import pytest

from ontologik import (
    Atom,
    Coerced,
    Failed,
    Implies,
    LexiconError,
    NestingError,
    Not,
    OntologikError,
    Quant,
    QuantKind,
    TypeCheckError,
    Unified,
    alpha_equal,
    analyze,
    canonicalize,
    conj,
    fold_expectations,
    parse_lf,
    parse_sentence,
    pretty,
    unify_types,
)
from ontologik import cli, unifier
from ontologik.logform import MAX_NESTING

from oracles import random_form, random_liftable_form

# ----------------------------------------------------------------------
# pairwise unification
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "first, second, result",
    [
        ("beer", "entity", "beer"),
        ("entity", "beer", "beer"),
        ("animal", "person", "person"),
        ("person", "animal", "person"),
        ("person", "person", "person"),
    ],
)
def test_comparable_types_unify_to_the_specific_one(ont, lex, first, second, result):
    assert unify_types(ont, lex, first, second) == Unified(result)


def test_incomparable_types_coerce_through_a_salient_relation(ont, lex):
    outcome = unify_types(ont, lex, "omelet", "person")
    assert isinstance(outcome, Coerced)
    assert outcome.result == "person"
    assert outcome.relation.name == "EATING"
    assert outcome.relatum_type == "omelet"


def test_coercion_refines_a_loose_expectation_to_the_relation_domain(ont, lex):
    # the relation knows the wanter is a person, tighter than bare animal
    outcome = unify_types(ont, lex, "omelet", "animal")
    assert outcome == unify_types(ont, lex, "animal", "omelet")
    assert isinstance(outcome, Coerced)
    assert outcome.result == "person"
    assert outcome.relatum_type == "omelet"


@pytest.mark.parametrize(
    "first, second",
    [
        ("car", "person"),
        ("omelet", "car"),
        ("beer", "animal"),
        ("raven", "car"),
    ],
)
def test_unbridgeable_incomparables_fail(ont, lex, first, second):
    outcome = unify_types(ont, lex, first, second)
    assert isinstance(outcome, Failed)
    assert {outcome.left, outcome.right} == {first, second}


def test_unify_commutes_up_to_role_on_all_reference_pairs(ont, lex):
    for a in ont.nodes:
        for b in ont.nodes:
            ab = unify_types(ont, lex, a, b)
            ba = unify_types(ont, lex, b, a)
            assert type(ab) is type(ba), (a, b)
            match ab, ba:
                case Unified(x), Unified(y):
                    assert x == y
                case Coerced(x, rx, tx), Coerced(y, ry, ty):
                    assert (x, rx, tx) == (y, ry, ty)
                case Failed(l1, r1), Failed(l2, r2):
                    assert {l1, r1} == {l2, r2}


def test_unified_result_subsumed_by_both_sides(ont, lex):
    for a in ont.nodes:
        for b in ont.nodes:
            outcome = unify_types(ont, lex, a, b)
            if isinstance(outcome, Unified):
                assert ont.subsumes(a, outcome.result)
                assert ont.subsumes(b, outcome.result)


# ----------------------------------------------------------------------
# expectation folding
# ----------------------------------------------------------------------


def test_fold_plain_cast_up(ont, lex):
    outcome, trace = fold_expectations(ont, lex, "beer", ["entity"], subject="b")
    assert outcome == Unified("beer")
    [step] = trace.steps_for("b")
    assert step.detail == "(beer • entity)"
    assert step.outcome == "beer"


def test_fold_coercion_records_both_reductions(ont, lex):
    outcome, trace = fold_expectations(
        ont, lex, "omelet", ["animal", "person"], subject="o"
    )
    assert isinstance(outcome, Coerced)
    assert outcome.result == "person"
    assert outcome.relation.name == "EATING"
    assert outcome.relatum_type == "omelet"
    details = [(s.detail, s.outcome) for s in trace.steps_for("o")]
    assert details == [
        ("(animal • person)", "person"),
        ("(omelet • person)", "coerced: person via EATING(person, omelet)"),
    ]


@pytest.mark.parametrize(
    "declared, expected_type",
    [
        ("beer", "animal"),
        ("car", "person"),
    ],
)
def test_fold_failure_identifies_the_stuck_pair(ont, lex, declared, expected_type):
    outcome, trace = fold_expectations(ont, lex, declared, [expected_type], subject="v")
    assert outcome == Failed(declared, expected_type)
    last = trace.steps_for("v")[-1]
    assert last.outcome == f"failed: {declared} vs {expected_type}"


def test_fold_allows_at_most_one_coercion(ont, lex):
    # declared omelet folds against person (coercion one), then the original
    # omelet declaration meets person again and may not coerce a second time
    outcome, trace = fold_expectations(ont, lex, "omelet", ["omelet", "person"])
    assert outcome == Failed("omelet", "person")
    assert [s.outcome for s in trace.steps] == [
        "coerced: person via EATING(person, omelet)",
        "failed: omelet vs person",
    ]


def test_fold_requires_expectations(ont, lex):
    with pytest.raises(ValueError):
        fold_expectations(ont, lex, "beer", [])


# ----------------------------------------------------------------------
# whole-form analysis
# ----------------------------------------------------------------------


def test_analyze_types_every_binder(ont, lex):
    got = analyze(parse_lf("(E x)(and (loud(x)) (articulate(x)))"), ont, lex)
    assert pretty(got.form) == "(E x :: person)(and (articulate(x)) (loud(x)))"
    assert got.missing_text == []


def test_analyze_defaults_untouched_binders_to_the_root(ont, lex):
    got = analyze(parse_lf("(E x)(E y :: beer)(loud(x))"), ont, lex)
    assert pretty(got.form) == "(E x :: person)(E y :: beer)(loud(x))"
    [step] = got.trace.steps_for("y")
    assert (step.op, step.outcome) == ("type", "beer")


def test_analyze_proper_name_binders_take_their_declared_type(ont, lex):
    got = analyze(parse_lf("(E! Julie)(beautiful(Julie))"), ont, lex)
    assert pretty(got.form) == "(E! Julie :: person)(beautiful(Julie))"


def test_cast_up_keeps_the_declared_type(ont, lex):
    # black expects physical; the binder stays the more specific beer
    got = analyze(parse_lf("(E x :: beer)(black(x))"), ont, lex)
    assert pretty(got.form) == "(E x :: beer)(black(x))"
    assert got.missing_text == []


def test_analyze_rejects_unsatisfiable_expectations(ont, lex):
    with pytest.raises(TypeCheckError) as err:
        analyze(parse_lf("(E b :: beer)(E c :: car)(want(b, c))"), ont, lex)
    assert err.value.subject == "b"
    assert err.value.declared == "beer"
    assert err.value.expectation == "animal"
    assert "'b' of type beer cannot satisfy expectation animal" in str(err.value)


def test_analyze_checks_constants_by_plain_comparability(ont, lex):
    got = analyze(parse_lf("(E x :: person)(want(x, Julie))"), ont, lex)
    [step] = got.trace.steps_for("Julie")
    assert step.detail == "(person • entity)"
    assert step.outcome == "person"
    assert pretty(got.form) == "(E x :: person)(want(x, Julie))"


def test_analyze_rejects_unknown_constants(ont, lex):
    with pytest.raises(LexiconError, match="unknown constant 'Zork'"):
        analyze(parse_lf("(E x :: person)(want(x, Zork))"), ont, lex)


def test_analyze_rejects_arity_mismatches(ont, lex):
    with pytest.raises(LexiconError, match="expects 1 argument"):
        analyze(parse_lf("(E x :: person)(E y :: beer)(loud(x, y))"), ont, lex)


# -- the missing-text flagship ------------------------------------------


@pytest.fixture()
def loud_omelet(ont, lex):
    form = parse_sentence("The loud omelet wants another beer", ont, lex)
    return analyze(form, ont, lex)


def test_coercion_retypes_the_referent_and_introduces_a_relatum(ont, lex, loud_omelet):
    expected = parse_lf(
        "(E p :: person)(E f :: omelet)(E b :: beer)"
        "(and (EATING(p, f)) (loud(p)) (want(p, b)))"
    )
    assert alpha_equal(loud_omelet.form, expected)


def test_coercion_trace_has_exactly_two_reductions_for_the_referent(loud_omelet):
    details = [(s.detail, s.outcome) for s in loud_omelet.trace.steps_for("o")]
    assert details == [
        ("(animal • person)", "person"),
        ("(omelet • person)", "coerced: person via EATING(person, omelet)"),
    ]


def test_coercion_surfaces_the_missing_text(loud_omelet):
    assert loud_omelet.missing_text == ["some loud person eating the omelet"]


def test_no_coercion_means_no_missing_text(ont, lex):
    got = analyze(parse_lf("(E! j :: person)(articulate(j))"), ont, lex)
    assert got.missing_text == []


def test_reanalysis_is_a_fixpoint(ont, lex, loud_omelet):
    again = analyze(loud_omelet.form, ont, lex)
    assert alpha_equal(again.form, loud_omelet.form)
    assert again.missing_text == []


def test_fresh_relatum_avoids_captured_names(ont, lex):
    # o2 is taken by an existing binder, so the relatum moves to o3
    form = parse_lf("(E o)(E o2 :: beer)(and (omelet(o)) (loud(o)) (want(o, o2)))")
    got = analyze(form, ont, lex)
    assert pretty(got.form) == (
        "(E o :: person)(E o3 :: omelet)(E o2 :: beer)"
        "(and (EATING(o, o3)) (loud(o)) (want(o, o2)))"
    )


def test_two_independent_coercions_gloss_in_binding_order(ont, lex):
    form = parse_lf("(E o :: omelet)(E p :: omelet)(and (loud(o)) (articulate(p)))")
    got = analyze(form, ont, lex)
    assert got.missing_text == [
        "some loud person eating the omelet",
        "some articulate person eating the omelet",
    ]
    assert alpha_equal(
        got.form,
        parse_lf(
            "(E o :: person)(E o2 :: omelet)(E p :: person)(E p2 :: omelet)"
            "(and (EATING(o, o2)) (EATING(p, p2)) (articulate(p)) (loud(o)))"
        ),
    )


def test_sentence_and_logical_form_inputs_agree(ont, lex):
    by_sentence = analyze(parse_sentence("Julie is an articulate person", ont, lex), ont, lex)
    by_lf = analyze(parse_lf("(E! j :: person)(articulate(j))"), ont, lex)
    assert alpha_equal(by_sentence.form, by_lf.form)


def test_a_denied_adjective_stays_out_of_the_gloss(ont, lex):
    got = analyze(parse_lf("(E o :: omelet)(! loud(o))"), ont, lex)
    assert got.missing_text == ["some person eating the omelet"]
    assert pretty(got.form) == (
        "(E o :: person)(E o2 :: omelet)(and (! loud(o)) (EATING(o, o2)))"
    )


def test_an_antecedent_adjective_stays_out_of_the_gloss(ont, lex):
    got = analyze(parse_lf("(E o :: omelet)(loud(o) -> articulate(o))"), ont, lex)
    assert got.missing_text == ["some articulate person eating the omelet"]


# -- one fold per distinct declared type and expectations ----------------


@pytest.fixture()
def calls(monkeypatch):
    """Counts of the unifier's fold_expectations and unify_types calls."""
    counts = {"fold_expectations": 0, "unify_types": 0}
    for name in counts:
        original = getattr(unifier, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(unifier, name, counting)
    return counts


SHARED_PAIR = (
    "(E o :: omelet)(E p :: beer)(E q :: omelet)"
    "(and (black(p)) (loud(o)) (loud(q)) (want(o, Julie)) (want(q, Julie)))"
)


def _lines(got):
    return [(s.op, s.subject, s.detail, s.outcome) for s in got.trace.steps[1:]]


def test_binders_sharing_a_pair_repeat_its_derivation_under_their_own_name(ont, lex, calls):
    got = analyze(parse_lf(SHARED_PAIR), ont, lex)
    coerced = "coerced: person via EATING(person, omelet)"
    assert _lines(got) == [
        ("unify", "o", "(animal • person)", "person"),
        ("unify", "o", "(omelet • person)", coerced),
        ("unify", "p", "(beer • physical)", "beer"),
        ("unify", "q", "(animal • person)", "person"),
        ("unify", "q", "(omelet • person)", coerced),
        ("unify", "Julie", "(person • entity)", "person"),
        ("unify", "Julie", "(person • entity)", "person"),
    ]
    assert pretty(got.form) == (
        "(E o :: person)(E o2 :: omelet)(E p :: beer)(E q :: person)(E q2 :: omelet)"
        "(and (EATING(o, o2)) (EATING(q, q2)) (black(p)) (loud(o)) (loud(q))"
        " (want(o, Julie)) (want(q, Julie)))"
    )
    assert got.missing_text == ["some loud person eating the omelet"] * 2
    # one fold for o and q, one for p; one unify per Julie slot
    assert calls == {"fold_expectations": 2, "unify_types": 2 + 1 + 2}
    again = analyze(parse_lf(SHARED_PAIR), ont, lex)
    assert calls == {"fold_expectations": 4, "unify_types": 10}
    assert _lines(again) == _lines(got)


def test_binders_whose_expectations_differ_only_in_order_fold_apart(ont, lex, calls):
    form = parse_lf(
        "(E o :: omelet)(E p :: omelet)"
        "(and (beautiful(o)) (black(o)) (black(p)) (want(Julie, p)))"
    )
    got = analyze(form, ont, lex)
    assert _lines(got) == [
        ("unify", "o", "(physical • entity)", "physical"),
        ("unify", "o", "(omelet • physical)", "omelet"),
        ("unify", "p", "(entity • physical)", "physical"),
        ("unify", "p", "(omelet • physical)", "omelet"),
        ("unify", "Julie", "(person • animal)", "person"),
    ]
    assert calls["fold_expectations"] == 2
    analyze(form, ont, lex)
    assert calls["fold_expectations"] == 4


def test_binders_whose_declared_types_differ_fold_apart(ont, lex, calls):
    got = analyze(parse_lf("(E o :: omelet)(E b :: beer)(and (black(b)) (black(o)))"), ont, lex)
    assert _lines(got) == [
        ("unify", "o", "(omelet • physical)", "omelet"),
        ("unify", "b", "(beer • physical)", "beer"),
    ]
    assert pretty(got.form) == "(E o :: omelet)(E b :: beer)(and (black(b)) (black(o)))"
    assert calls["fold_expectations"] == 2


def test_a_repeated_failing_pair_fails_at_its_first_binder(ont, lex, calls):
    form = parse_lf("(E b :: beer)(E c :: beer)(and (loud(b)) (loud(c)))")
    with pytest.raises(TypeCheckError) as err:
        analyze(form, ont, lex)
    assert (err.value.subject, err.value.declared, err.value.expectation) == (
        "b", "beer", "person"
    )
    assert calls["fold_expectations"] == 1


def test_analyze_takes_an_api_built_500_binder_prefix(ont, lex):
    form = conj([Atom("loud", (f"x{i}",)) for i in range(500)])
    for i in reversed(range(500)):
        form = Quant(QuantKind.EXISTS, f"x{i}", "person", form)
    got = analyze(form, ont, lex)
    assert pretty(got.form).startswith("(E x0 :: person)(E x1 :: person)")
    assert got.missing_text == []


def test_analyze_on_deeply_nested_api_built_negation_raises_a_package_error(ont, lex):
    form = Atom("loud", ("o",))
    for _ in range(1000):
        form = Not(form)
    with pytest.raises(NestingError, match="^input nested too deeply$"):
        analyze(Quant(QuantKind.EXISTS, "o", "person", form), ont, lex)


def test_analyze_refuses_a_bridge_that_would_nest_past_the_cap(ont, lex):
    # The omelet's bridge turns the matrix atom into a conjunction, one
    # level deeper; the typed form must still print to text parse_lf reads.
    def implications(count):
        form = Quant(QuantKind.EXISTS, "o", "omelet", Atom("loud", ("o",)))
        for _ in range(count):
            form = Implies(Atom("loud", ("Julie",)), form)
        return form

    got = analyze(implications(MAX_NESTING - 2), ont, lex)
    assert got.missing_text == ["some loud person eating the omelet"]
    assert parse_lf(pretty(got.form)) == got.form
    canonicalize(implications(MAX_NESTING - 1), ont, lex)
    with pytest.raises(NestingError, match="^input nested too deeply$"):
        analyze(implications(MAX_NESTING - 1), ont, lex)


# -- each conjunct printed once per analysis -----------------------------


def test_printed_texts_match_a_fresh_print_on_random_forms(ont, lex, capsys):
    # One process, one form after another: a memo entry keyed by the id of a
    # node that died would show here as a stale text once the id is reused.
    rng = random.Random(707)
    forms = [random_form(rng, max_depth=5) for _ in range(1000)]
    forms += [random_liftable_form(rng) for _ in range(1000)]
    typed = printed = 0
    for form in forms:
        source = pretty(form)
        cli.cmd_analyze(ont, lex, cli.Reporter("structured"), "@lf: " + source)
        record = json.loads(capsys.readouterr().out)
        try:
            got = analyze(form, ont, lex)
        except OntologikError:
            assert record["status"] != "ok"
            continue
        typed += 1
        assert got.text == pretty(got.form)
        first = got.trace.steps[0]
        assert (first.op, first.detail, first.outcome) == (
            "canonicalize", source, pretty(canonicalize(form, ont, lex))
        )
        if record["status"] == "ok":  # else a shadowed binder, which text cannot say
            printed += 1
            assert record["canonical"] == got.text
            assert record["trace"][0]["detail"] == source
    assert typed >= 1000 and printed >= 900


def test_a_conjunct_that_lifting_absorbs_is_not_printed_for_a_later_node(ont, lex):
    # Lifting omelet(x) leaves the recorded conjunct (E y :: person)(loud(y))
    # alone, and the prefix absorbs it; a new node that took its id would
    # print as it did, unless the memo holds it for the whole call.
    source = "(and (E x)(and (omelet(x)) ((E y :: person)(loud(y)))) (E z :: person)(loud(z)))"
    typed = "(and (E x :: omelet)(E y :: person)(loud(y)) (E z :: person)(loud(z)))"
    for _ in range(50):
        got = analyze(parse_lf(source), ont, lex)
        assert (got.text, got.trace.steps[0].outcome) == (typed, typed)


def test_a_subtree_with_no_new_type_and_no_bridge_is_the_canonical_node(ont, lex, monkeypatch):
    # The typed form reuses what analysis does not change, and so reuses the
    # text printed for it; a rewrite of the rebuild must keep that sharing.
    canonical = []

    def keep(*args):
        canonical.append(canonicalize(*args))
        return canonical[-1]

    monkeypatch.setattr(unifier, "canonicalize", keep)
    form = parse_lf(
        "(and (E p :: person)(loud(p)) (E o :: omelet)(loud(o)) (! (E b :: beer)(black(b))))"
    )
    typed = analyze(form, ont, lex).form.items
    negated, coerced, kept = canonical[0].items
    assert pretty(negated) == "(! (E b :: beer)(black(b)))"
    assert pretty(coerced) == "(E o :: omelet)(loud(o))"
    assert pretty(kept) == "(E p :: person)(loud(p))"
    assert typed[0] is negated and typed[2] is kept and typed[1] is not coerced
    assert pretty(typed[1]) == "(E o :: person)(E o2 :: omelet)(and (EATING(o, o2)) (loud(o)))"
    whole = analyze(parse_lf("(E p :: person)(loud(p))"), ont, lex).form
    assert whole is canonical[-1]
