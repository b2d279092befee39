import json
import random
from collections import Counter

import pytest

from ontologik import (
    Atom,
    Coerced,
    Failed,
    Implies,
    LFSyntaxError,
    Lexicon,
    LexiconError,
    NestingError,
    Not,
    OntologikError,
    Quant,
    QuantKind,
    SalientRelation,
    TypeCheckError,
    Unified,
    UnknownTypeError,
    alpha_equal,
    analyze,
    atoms,
    canonicalize,
    conj,
    fold_expectations,
    load_lexicon,
    load_ontology,
    parse_lf,
    parse_sentence,
    pretty,
    unify_types,
)
from ontologik import cli, unifier
from ontologik.fixtures import lexicon_path
from ontologik.logform import MAX_NESTING

from oracles import (
    ENUM_LEXICON,
    Model,
    adjacent_swaps,
    analysis_outcome,
    ancestor_chain,
    bench_conjunction,
    bench_prefix,
    enumerate_forms,
    holds,
    nested_prefixes,
    oracle_fold,
    random_form,
    random_liftable_form,
    random_relations,
    random_tree,
    reference_analyze,
    renamed_apart,
    tree_source,
)


def _steps_for(trace, subject):
    return [step for step in trace.steps if step.subject == subject]


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


def test_unify_names_the_first_unknown_type(ont, lex):
    with pytest.raises(UnknownTypeError, match="^unknown type name 'unicorn'$"):
        unify_types(ont, lex, "unicorn", "griffin")
    with pytest.raises(UnknownTypeError, match="^unknown type name 'griffin'$"):
        unify_types(ont, lex, "person", "griffin")


def test_unify_commutes_up_to_role_on_all_reference_pairs(ont, lex):
    for a in tuple(ont.parent):
        for b in tuple(ont.parent):
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
    for a in tuple(ont.parent):
        for b in tuple(ont.parent):
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
    [step] = _steps_for(trace, "b")
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
    details = [(s.detail, s.outcome) for s in _steps_for(trace, "o")]
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
    last = _steps_for(trace, "v")[-1]
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


def _as_oracle_outcome(outcome):
    if isinstance(outcome, Unified):
        return ("unified", outcome.result)
    if isinstance(outcome, Coerced):
        return ("coerced", outcome.result, outcome.relation.name, outcome.relatum_type)
    return ("failed", outcome.left, outcome.right)


def test_fold_matches_the_brute_force_oracle_on_random_trees():
    rng = random.Random(1313)
    seen = Counter()
    for _ in range(100):
        parent = random_tree(rng, max_nodes=14)
        ont = load_ontology(tree_source(parent))
        rels = random_relations(rng, parent)
        lex = Lexicon(relations=[SalientRelation(*rel) for rel in rels])
        nodes = list(parent)
        for _ in range(25):
            declared = rng.choice(nodes)
            expectations = [rng.choice(nodes) for _ in range(rng.randint(1, 4))]
            outcome, trace = fold_expectations(ont, lex, declared, expectations, subject="v")
            want, lines = oracle_fold(parent, rels, declared, expectations)
            assert _as_oracle_outcome(outcome) == want, (parent, rels, declared, expectations)
            assert [(s.op, s.subject, s.detail, s.outcome) for s in trace.steps] == [
                ("unify", "v", detail, text) for detail, text in lines
            ]
            coerced_before = any(text.startswith("coerced") for _, text in lines[:-1])
            seen[want[0] + (" after a coercion" if want[0] == "failed" and coerced_before else "")] += 1
    # every way a fold can end is reached, a second coercion included
    assert set(seen) == {"unified", "coerced", "failed", "failed after a coercion"}, seen
    assert min(seen.values()) >= 50, seen


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
    [step] = _steps_for(got.trace, "y")
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
    [step] = _steps_for(got.trace, "Julie")
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
    details = [(s.detail, s.outcome) for s in _steps_for(loud_omelet.trace, "o")]
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


def test_a_form_at_the_cap_analyzes_and_prints(ont, lex):
    # The trace line prints the input, at the cap, and the typed form.
    form = Quant(QuantKind.EXISTS, "x", "person", Atom("loud", ("x",)))
    for _ in range(MAX_NESTING - 1):
        form = Not(form)
    got = analyze(form, ont, lex)
    assert got.trace.steps[0].detail == pretty(form)
    assert got.text == pretty(got.form)


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


# -- what the order of the analysis walk must not change -----------------


def test_the_trace_lists_binders_in_binding_order_then_constants(ont, lex):
    # b is bound inside o's matrix, and its Julie slot comes first in the
    # canonical form; still o's lines come first and Julie's come last.
    got = analyze(parse_lf(
        "(E o :: omelet)(and (loud(o)) (want(o, Julie))"
        " ((E b :: beer)(and (black(b)) (want(Julie, b)))))"
    ), ont, lex)
    assert got.text == (
        "(E o :: person)(E o2 :: omelet)(and (E b :: beer)(and (black(b)) (want(Julie, b)))"
        " (EATING(o, o2)) (loud(o)) (want(o, Julie)))"
    )
    assert _lines(got) == [
        ("unify", "o", "(animal • person)", "person"),
        ("unify", "o", "(omelet • person)", "coerced: person via EATING(person, omelet)"),
        ("unify", "b", "(entity • physical)", "physical"),
        ("unify", "b", "(beer • physical)", "beer"),
        ("unify", "Julie", "(person • animal)", "person"),
        ("unify", "Julie", "(person • entity)", "person"),
    ]


@pytest.fixture(scope="module")
def lex_with_bad_names(ont):
    # Herbie is a car and Omi an omelet: neither is comparable with person.
    source = lexicon_path().read_text() + "name Herbie :: car\nname Omi :: omelet\n"
    return load_lexicon(source, ont)


@pytest.mark.parametrize(
    "source, error, message",
    [
        # b cannot be loud, but an error met while reading the form wins,
        # wherever it stands: an arity mismatch, an unknown constant or an
        # unknown restriction, after b's matrix atom or inside another prefix
        ("(E b :: beer)(and (loud(b)) ((E c)(want(c))))",
         LexiconError, "'want' expects 2 argument(s), got 1"),
        ("(E b)(and ((E c :: beer)(loud(c))) (want(b)))",
         LexiconError, "'want' expects 2 argument(s), got 1"),
        ("(E b :: beer)(and (loud(b)) (loud(Zed)))", LexiconError, "unknown constant 'Zed'"),
        ("(E b :: beer)(and (loud(b)) ((E c :: unicorn)(loud(c))))",
         UnknownTypeError, "unknown type name 'unicorn'"),
        # among failing binders the first in binding order wins, even when
        # the other is bound inside its matrix or later in the same prefix
        ("(E b :: beer)(and (loud(b)) ((E c :: car)(loud(c))))",
         TypeCheckError, "'b' of type beer cannot satisfy expectation person"),
        ("(E b :: beer)(E c :: car)(and (loud(b)) (loud(c)))",
         TypeCheckError, "'b' of type beer cannot satisfy expectation person"),
        ("(E c :: car)(and (red(c)) ((E b :: beer)(loud(b))) (want(c, c)))",
         TypeCheckError, "'c' of type car cannot satisfy expectation animal"),
        # constants are checked only after every binder, in occurrence order
        ("(E b :: beer)(and (loud(Herbie)) (loud(b)))",
         TypeCheckError, "'b' of type beer cannot satisfy expectation person"),
        ("(E x :: person)(and (loud(x)) (red(Herbie)) (want(Omi, x)))",
         TypeCheckError, "'Omi' of type omelet cannot satisfy expectation animal"),
    ],
)
def test_analysis_errors_keep_their_precedence(ont, lex_with_bad_names, source, error, message):
    with pytest.raises(error) as err:
        analyze(parse_lf(source), ont, lex_with_bad_names)
    assert type(err.value) is error and str(err.value) == message


def test_a_type_check_error_beats_a_bridge_that_would_nest_past_the_cap(ont, lex):
    # Without the failing b, the omelet's bridge would raise NestingError.
    form = Quant(QuantKind.EXISTS, "o", "omelet", Atom("loud", ("o",)))
    for _ in range(MAX_NESTING - 2):
        form = Implies(Atom("loud", ("Julie",)), form)
    failing = Quant(QuantKind.EXISTS, "b", "beer", Atom("loud", ("b",)))
    with pytest.raises(TypeCheckError, match="^'b' of type beer"):
        analyze(Implies(failing, form), ont, lex)
    with pytest.raises(NestingError):
        analyze(Implies(Atom("loud", ("Julie",)), form), ont, lex)
    # Two bridges deepen one conjunct past the cap; sorting the conjunction
    # that holds it must not raise before the failing b is reported.
    form = Quant(QuantKind.EXISTS, "p", "omelet", Atom("loud", ("p",)))
    for _ in range(MAX_NESTING - 4):
        form = Implies(Atom("loud", ("Julie",)), form)
    form = Quant(QuantKind.EXISTS, "o", "omelet", Implies(Atom("loud", ("o",)), form))
    with pytest.raises(TypeCheckError, match="^'b' of type beer"):
        analyze(conj([failing, form]), ont, lex)
    with pytest.raises(NestingError):
        analyze(conj([Atom("loud", ("Julie",)), form]), ont, lex)


def test_a_relatum_name_avoids_a_name_bound_later_in_the_form(ont, lex):
    got = analyze(parse_lf("(and (E x :: omelet)(loud(x)) (E x2 :: car)(red(x2)))"), ont, lex)
    assert got.text == (
        "(and (E x :: person)(E x3 :: omelet)(and (EATING(x, x3)) (loud(x)))"
        " (E x2 :: car)(red(x2)))"
    )


def test_shadowed_relata_are_numbered_as_the_walk_builds_prefixes(ont, lex):
    # Only the API can build a binder that shadows another. The walk builds
    # the inner prefix first, so its relatum takes x2 and the outer one x3.
    inner = Quant(QuantKind.EXISTS, "x", "omelet", Atom("loud", ("x",)))
    form = Quant(QuantKind.EXISTS, "x", "omelet", conj([Atom("loud", ("x",)), inner]))
    got = analyze(form, ont, lex)
    assert got.text == (
        "(E x :: person)(E x3 :: omelet)(and (E x :: person)(E x2 :: omelet)"
        "(and (EATING(x, x2)) (loud(x))) (EATING(x, x3)) (loud(x)))"
    )
    assert got.missing_text == ["some loud person eating the omelet"] * 2


def test_analyze_takes_an_api_built_1000_binder_prefix_of_loud_omelets(ont, lex):
    form = conj([Atom("loud", (f"x{i}",)) for i in range(1000)])
    for i in reversed(range(1000)):
        form = Quant(QuantKind.EXISTS, f"x{i}", "omelet", form)
    got = analyze(form, ont, lex)
    assert got.missing_text == ["some loud person eating the omelet"] * 1000
    assert sum(atom.pred == "EATING" for atom in atoms(got.form)) == 1000
    assert parse_lf(pretty(got.form)) == got.form


# -- the analysis walk against its frozen reference ----------------------


def test_analyze_matches_its_frozen_reference_on_api_built_forms(ont, lex):
    # Built, not parsed, so binders may shadow one another: analyze returns
    # the typed form, text, trace and glosses the original walk returned, or
    # raises its class and message.
    rng = random.Random(2101)
    seen = Counter()
    for k in range(20_000):
        form = random_form(rng, max_depth=6) if k % 2 else random_liftable_form(rng, max_depth=rng.randint(1, 3))
        expected = analysis_outcome(reference_analyze, form, ont, lex)
        assert analysis_outcome(analyze, form, ont, lex) == expected, repr(form)
        seen["bridged" if expected[0] == "ok" and expected[4] else expected[0]] += 1
    assert sum(seen.values()) == 20_000
    assert min(seen[k] for k in ("ok", "bridged", "TypeCheckError", "CanonicalizationError")) >= 500, seen


def test_analyze_matches_its_frozen_reference_on_the_benchmark_shapes(ont, lex):
    # bench/gen.py's largest shapes with a fifth of the binders bridged, and
    # a 1,000-binder prefix over 400 one-binder prefixes, each bridged.
    rng = random.Random(2102)
    for form in (bench_prefix(rng, 300), bench_conjunction(rng, 400), nested_prefixes(1000, 400)):
        expected = analysis_outcome(reference_analyze, form, ont, lex)
        assert analysis_outcome(analyze, form, ont, lex) == expected
        assert expected[0] == "ok" and expected[4]


@pytest.fixture(scope="module")
def small_forms(ont):
    # Small-scope enumeration (ROADMAP item 10): every form with at most two
    # binders, two atoms and one connective, over a vocabulary with one
    # bridge, so a coercible binder stands under every kind, ! and ->. Each
    # comes with analysis_outcome(analyze, ...), which the tests below share.
    lex = load_lexicon(ENUM_LEXICON, ont)
    return lex, [(form, analysis_outcome(analyze, form, ont, lex)) for form in enumerate_forms(2, 2, 1)]


def test_analyze_matches_its_frozen_reference_on_every_small_form(ont, small_forms):
    lex, analysed = small_forms
    assert len(analysed) == 15_816
    seen = Counter()
    for form, got in analysed:
        expected = analysis_outcome(reference_analyze, form, ont, lex)
        assert got == expected, repr(form)
        if expected[0] == "ok" and expected[4]:
            outer = form.kind if isinstance(form, Quant) else type(form).__name__
            seen[outer] += 1
        seen[expected[0]] += 1
    assert seen["ok"] + seen["TypeCheckError"] == len(analysed)
    # a bridged binder under each kind, and under a negation or an implication
    assert min(seen[k] for k in (*QuantKind, "Not", "Implies", "And")) >= 100, seen


def test_every_small_form_raises_only_an_ontologik_error(ont):
    # ROADMAP item 6 on item 10's forms: any other exception fails the test.
    lex = load_lexicon(ENUM_LEXICON, ont)
    calls = (
        pretty, atoms, lambda f: canonicalize(f, ont, lex), lambda f: analyze(f, ont, lex),
        lambda f: alpha_equal(f, f),
    )
    for form in enumerate_forms(binders=2, atoms=2, connectives=1):
        for call in calls:
            try:
                call(form)
            except OntologikError:
                pass


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="a typed form can gain a bridge when analysed again (ROADMAP item 8)"
)
def test_every_small_typed_form_is_a_fixed_point_of_analysis(ont, small_forms):
    # The shortest counterexample: (E x0)(EATING(x0, x0)) types to a form
    # that gains (E x03 :: food) on a second pass.
    lex, analysed = small_forms
    moved = []
    for form, got in analysed:
        if got[0] != "ok":
            continue
        again = analysis_outcome(analyze, got[1], ont, lex)
        if again[0] != "ok" or again[2] != got[2] or again[4]:
            moved.append(pretty(form))
    assert moved == [], (len(moved), min(moved, key=len))


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="alpha_equal keeps the order of binders that commute (ROADMAP item 11)"
)
def test_swapping_adjacent_binders_of_one_kind_keeps_small_forms_alpha_equal(ont):
    # The shortest counterexample: (A x0)(A x1)(red(x0)) against its swap.
    lex = load_lexicon(ENUM_LEXICON, ont)
    swaps, apart = 0, []
    for form in enumerate_forms(binders=2, atoms=2, connectives=1):
        for swapped in adjacent_swaps(form):
            swaps += 1
            if not alpha_equal(canonicalize(form, ont, lex), canonicalize(swapped, ont, lex)):
                apart.append(pretty(form))
    assert swaps == 1840
    assert apart == [], (len(apart), min(apart, key=len))


def test_every_small_canonical_and_typed_form_parses_back_from_its_text(ont, small_forms):
    # ROADMAP item 12 on item 10's forms, where no binder shadows another:
    # parse_lf reads back what pretty prints, for each canonical form and
    # each typed form.
    lex, analysed = small_forms
    typed = 0
    for form, got in analysed:
        cf = canonicalize(form, ont, lex)
        assert parse_lf(pretty(cf)) == cf, repr(form)
        if got[0] == "ok":
            assert parse_lf(got[2]) == got[1], repr(form)
            typed += 1
    assert typed == 11_325


@pytest.mark.xfail(
    strict=True, raises=LFSyntaxError, reason="a typed form whose binder shadows another does not parse back (ROADMAP item 12)"
)
def test_a_typed_form_with_a_shadowing_binder_parses_back_from_its_text(ont, lex):
    # README's API-built case: it types to (A v0 :: entity)(E v0 :: beer)(black(v0)),
    # which parse_lf rejects at position 19.
    form = Quant(QuantKind.FORALL, "v0", "entity", Quant(QuantKind.EXISTS, "v0", "beer", Atom("black", ("v0",))))
    got = analyze(form, ont, lex)
    assert parse_lf(got.text) == got.form


def test_renaming_small_forms_apart_keeps_their_analysis(ont, small_forms):
    # ROADMAP item 9's renaming case on item 10's forms: with every bound
    # variable renamed apart, a form fails with the same error class, or
    # types to a form alpha_equal to the original's, with as many glosses.
    lex, analysed = small_forms
    rng = random.Random(2301)
    typed = 0
    for form, want in analysed:
        got = analysis_outcome(analyze, renamed_apart(form, rng), ont, lex)
        assert got[0] == want[0], (repr(form), got)
        if want[0] == "ok":
            assert alpha_equal(got[1], want[1]) and len(got[4]) == len(want[4]), repr(form)
            typed += 1
    assert typed == 11_325


# -- ROADMAP item 1: a bridge must keep the quantifier's domain ----------


def _model(ont, own, eats, loud):
    # Element i has type own[i]; EATING holds of (eater, eaten) pairs.
    members = {t: set() for t in ont.parent}
    for element, t in enumerate(own):
        for up in ancestor_chain(dict(ont.parent), t):
            members[up].add(element)
    extension = {"EATING": frozenset(eats), "loud": frozenset((e,) for e in loud)}
    return Model(len(own), {t: frozenset(m) for t, m in members.items()}, extension, {})


@pytest.mark.xfail(strict=True, reason="the bridge takes the coerced binder's quantifier (ROADMAP item 1)")
@pytest.mark.parametrize(
    "source, through_eater, own, eats, loud",
    [
        # one omelet, eaten by a loud person, and a quiet person who eats
        # nothing: every omelet's eater is loud, but not every person eats
        ("(A x :: omelet)(loud(x))",
         "(A y :: omelet)(E x :: person)(and (EATING(x, y)) (loud(x)))",
         ["omelet", "person", "person"], [(1, 0)], [1]),
        # two omelets, both eaten by one loud person: two omelets have a
        # loud eater, but one person eats an omelet and is loud
        ("(E! x :: omelet)(loud(x))",
         "(E! y :: omelet)(E x :: person)(and (EATING(x, y)) (loud(x)))",
         ["omelet", "omelet", "person"], [(2, 0), (2, 1)], [2]),
    ],
)
def test_a_bridge_keeps_the_meaning_read_through_the_eater(ont, lex, source, through_eater, own, eats, loud):
    model = _model(ont, own, eats, loud)
    typed = analyze(parse_lf(source), ont, lex).form
    assert holds(typed, model) == holds(parse_lf(through_eater), model)
