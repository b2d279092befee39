import pytest

from ontologik import (
    Coerced,
    Failed,
    LexiconError,
    TypeCheckError,
    Unified,
    alpha_equal,
    analyze,
    fold_expectations,
    missing_text_report,
    parse_lf,
    parse_sentence,
    pretty,
    unify_types,
)

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
    assert missing_text_report(loud_omelet) == "some loud person eating the omelet"


def test_no_coercion_means_no_missing_text(ont, lex):
    got = analyze(parse_lf("(E! j :: person)(articulate(j))"), ont, lex)
    assert missing_text_report(got) == "no missing text detected"


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
