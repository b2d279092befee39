import inspect
import random
import re

import pytest

from ontologik import (
    And,
    Atom,
    CanonicalizationError,
    Implies,
    LFSyntaxError,
    NestingError,
    Not,
    Quant,
    QuantKind,
    alpha_equal,
    atoms,
    binders,
    canonicalize,
    conj,
    constants,
    parse_lf,
    pretty,
)
from ontologik.logform import MAX_NESTING

from oracles import holds, random_liftable_form, random_form, random_model

K = QuantKind


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def test_parse_unique_existential_with_restriction():
    form = parse_lf("(E! j :: person)(articulate(j))")
    assert form == Quant(K.EXISTS_UNIQUE, "j", "person", Atom("articulate", ("j",)))


def test_parse_universal_implication():
    form = parse_lf("(A x)(raven(x) -> black(x))")
    assert form == Quant(
        K.FORALL, "x", None, Implies(Atom("raven", ("x",)), Atom("black", ("x",)))
    )


def test_parse_negated_implication():
    form = parse_lf("(A x)((! black(x)) -> (! raven(x)))")
    assert form == Quant(
        K.FORALL,
        "x",
        None,
        Implies(Not(Atom("black", ("x",))), Not(Atom("raven", ("x",)))),
    )


def test_parse_nested_existentials_with_conjunction():
    form = parse_lf("(E o)(E b)(and (omelet(o)) (beer(b)) (want(o, b)))")
    assert form == Quant(
        K.EXISTS,
        "o",
        None,
        Quant(
            K.EXISTS,
            "b",
            None,
            And((Atom("omelet", ("o",)), Atom("beer", ("b",)), Atom("want", ("o", "b")))),
        ),
    )


def test_parse_constant_argument():
    form = parse_lf("(E x)(want(x, Julie))")
    assert form == Quant(K.EXISTS, "x", None, Atom("want", ("x", "Julie")))


def test_parse_bare_atom_with_constant():
    assert parse_lf("beautiful(Julie)") == Atom("beautiful", ("Julie",))


def test_nested_conjunctions_flatten():
    form = parse_lf("(and (and (loud(Julie)) (red(Julie))) (black(Julie)))")
    assert isinstance(form, And) and len(form.items) == 3


def case(source, message, position, label):
    # A case is named by its source and the words of the message that say
    # what is wrong, so the name does not change with the position.
    return pytest.param(source, message, position, id=f"{source}-{label}")


@pytest.mark.parametrize(
    "source, message, position",
    [
        case("(E x)(loud(y))", "unbound variable 'y'", 11, "unbound variable 'y'"),
        case("loud(x)", "unbound variable 'x'", 5, "unbound variable 'x'"),
        case("(E x)((E x)(loud(x)))", "'x' already bound in an enclosing scope", 9, "already bound"),
        case("(E x)(E y)(E x)(loud(x))", "'x' already bound in an enclosing scope", 13, "already bound"),
        case("(Q x)(loud(x))", "unknown quantifier kind 'Q'", 1, "unknown quantifier kind"),
        case("(B x)(loud(x))", "unknown quantifier kind 'B'", 1, "unknown quantifier kind"),
        case("(E x)(loud x)", "unknown quantifier kind 'loud'", 6, "unknown quantifier kind"),
        case("(E ! )(loud(x))", "expected a variable, got ')'", 5, "expected a variable"),
        case("(A ! x)(loud(x))", "expected '(', got '!'", 3, "expected '('"),
        case("(E x)(loud(x)) extra(x)", "trailing input 'extra'", 15, "trailing input"),
        case("(E x)(loud(x)) )", "trailing input ')'", 15, "trailing input"),
        case("(E x)(loud(x)", "unexpected end of input, expected ')'", 13, "unexpected end of input"),
        case("(E x)(loud(x, ", "expected a term, got 'None'", 14, "expected a term"),
        case("(E x)(want(x, , x))", "expected a term, got ','", 14, "expected a term"),
        case("(E x)(", "expected a form, got 'None'", 6, "expected a form"),
        case("(E x)", "expected a form, got 'None'", 5, "expected a form"),
        case("(E x) ", "expected a form, got 'None'", 6, "expected a form"),
        case("(E x ::", "expected a type name, got 'None'", 7, "expected a type name"),
        case("(E x)(E", "unexpected end of input, expected '('", 7, "unexpected end of input"),
        case("loud", "unexpected end of input, expected '('", 4, "unexpected end of input"),
        case("(and (loud(Julie))", "unterminated conjunction", 18, "unterminated conjunction"),
        case("(E x)(and", "unterminated conjunction", 9, "unterminated conjunction"),
        case("(E x)(! loud(x)", "unexpected end of input, expected ')'", 15, "unexpected end of input"),
        case("(E x)(loud(x) -> red(x)", "unexpected end of input, expected ')'", 23, "unexpected end of input"),
        case("(and )", "empty conjunction", 6, "empty conjunction"),
        case("(E x)(@loud(x))", "unexpected character '@'", 6, "unexpected character"),
        case("(E x)(loud(x))   #", "unexpected character '#'", 17, "unexpected character"),
        case("(E x)(loud(x))\t.", "unexpected character '.'", 15, "unexpected character"),
        case("(E x)(lé(x))", "unexpected character 'é'", 7, "unexpected character"),
        case("1x", "unexpected character '1'", 0, "unexpected character"),
        case("(E x)(loud(x)):", "unexpected character ':'", 14, "unexpected character"),
        case("", "expected a form, got 'None'", 0, "expected a form"),
        case("   ", "expected a form, got 'None'", 3, "expected a form"),
        case("(E x :: )(loud(x))", "expected a type name, got ')'", 8, "expected a type name"),
        case("(E x :: person loud(x))", "expected ')', got 'loud'", 15, "expected ')'"),
        case("(E x)(loud(x) -> )", "expected a form, got ')'", 17, "expected a form"),
        case("(E x)(loud(x) red(x))", "expected ')', got 'red'", 14, "expected ')'"),
        case("(! loud(Julie) red(Julie))", "expected ')', got 'red'", 15, "expected ')'"),
        case("((loud(Julie)) red(Julie))", "expected ')', got 'red'", 15, "expected ')'"),
        case("loud Julie", "expected '(', got 'Julie'", 5, "expected '('"),
    ],
)
def test_parse_rejections(source, message, position):
    with pytest.raises(LFSyntaxError) as err:
        parse_lf(source)
    assert str(err.value) == f"at position {position}: {message}"
    assert err.value.position == position


def test_parse_error_positions():
    with pytest.raises(LFSyntaxError) as err:
        parse_lf("(E x)(loud(y))")
    assert err.value.position == 11
    assert "at position 11" in str(err.value)


def test_whitespace_separates_tokens():
    # E! is two tokens, so a space may stand between them
    assert parse_lf("(E ! x)(loud(x))") == parse_lf("(E! x)(loud(x))")
    assert parse_lf(" (E\tx ::\nperson) ( loud ( x ) )\n") == parse_lf("(E x :: person)(loud(x))")


# ----------------------------------------------------------------------
# printing and round-trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "(E! j :: person)(articulate(j))",
        "(A x)(raven(x) -> black(x))",
        "(A x :: raven)(black(x))",
        "(E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))",
        "(A x)((! black(x)) -> (! raven(x)))",
        "(E x)((loud(x) -> (! red(x))))",
        "beautiful(Julie)",
    ],
)
def test_pretty_reproduces_source(source):
    form = parse_lf(source)
    printed = pretty(form)
    assert parse_lf(printed) == form
    # printing is already in surface syntax, so it is its own fixpoint
    assert pretty(parse_lf(printed)) == printed


def test_pretty_examples():
    assert pretty(Atom("want", ("o", "b"))) == "want(o, b)"
    assert pretty(Not(Atom("red", ("Julie",)))) == "(! red(Julie))"
    # pretty never rewrites, so a double negation survives verbatim
    assert pretty(Not(Not(Atom("red", ("Julie",))))) == "(! (! red(Julie)))"
    assert (
        pretty(Quant(K.EXISTS_UNIQUE, "j", "person", Atom("articulate", ("j",))))
        == "(E! j :: person)(articulate(j))"
    )
    assert (
        pretty(conj([Atom("loud", ("Julie",)), Atom("red", ("Julie",))]))
        == "(and (loud(Julie)) (red(Julie)))"
    )


def test_pretty_takes_the_form_alone():
    # bench/spans.py wraps pretty as a function of one argument.
    assert list(inspect.signature(pretty).parameters) == ["form"]


def test_round_trip_on_random_forms():
    rng = random.Random(902)
    for _ in range(500):
        form = random_form(rng, max_depth=6)
        assert parse_lf(pretty(form)) == form


# Where each token of printed text starts; nothing may be inserted inside one.
_TOKEN_STARTS = re.compile(r"::|->|[()!,]|[A-Za-z_][A-Za-z0-9_]*")


def _random_forms(rng):
    return [random_form(rng, max_depth=5) for _ in range(150)] + [
        random_liftable_form(rng) for _ in range(150)
    ]


def test_whitespace_between_tokens_does_not_change_the_form():
    rng = random.Random(908)
    for form in _random_forms(rng):
        names = [var for var, _ in binders(form)]
        if len(set(names)) < len(names):
            continue  # shadowing, which only the API can build
        text = pretty(form)
        cuts = [m.start() for m in _TOKEN_STARTS.finditer(text)] + [len(text)]
        spaced, done = [], 0
        for cut in cuts:
            spaced += [text[done:cut], "".join(rng.choices(" \t\n", k=rng.randint(0, 3)))]
            done = cut
        assert parse_lf("".join(spaced)) == form


@pytest.mark.parametrize("stray", ["@", "#", ".", "é"])
def test_a_stray_character_is_reported_where_it_stands(stray):
    rng = random.Random(909)
    for form in _random_forms(rng):
        text = pretty(form)
        at = rng.choice([m.start() for m in _TOKEN_STARTS.finditer(text)] + [len(text)])
        with pytest.raises(LFSyntaxError) as err:
            parse_lf(text[:at] + stray + text[at:])
        assert str(err.value) == f"at position {at}: unexpected character '{stray}'"
        assert err.value.position == at


# ----------------------------------------------------------------------
# structural walks
# ----------------------------------------------------------------------


def test_binders_in_binding_order():
    form = parse_lf("(E o)(E b :: beer)(and (loud(o)) (want(o, b)))")
    assert binders(form) == [("o", None), ("b", "beer")]


def test_atoms_left_to_right():
    form = parse_lf("(A x)(raven(x) -> black(x))")
    assert [a.pred for a in atoms(form)] == ["raven", "black"]


def test_constants_excludes_bound_variables():
    form = parse_lf("(E x)(and (want(x, Julie)) (beautiful(Julie)))")
    assert constants(form) == ["Julie"]
    assert constants(parse_lf("(E x)(loud(x))")) == []
    assert constants(parse_lf("(A x)(loud(Julie) -> red(Jules))")) == ["Julie", "Jules"]


# ----------------------------------------------------------------------
# conj
# ----------------------------------------------------------------------


def test_conj_collapses_and_flattens():
    a, b, c = Atom("loud", ("Julie",)), Atom("red", ("Julie",)), Atom("black", ("Julie",))
    assert conj([a]) == a
    assert conj([And((a, b)), c]) == And((a, b, c))
    with pytest.raises(ValueError):
        conj([])


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------


def test_membership_lifts_into_universal_restriction(ont, lex):
    got = canonicalize(parse_lf("(A x)(raven(x) -> black(x))"), ont, lex)
    assert got == parse_lf("(A x :: raven)(black(x))")
    assert pretty(got) == "(A x :: raven)(black(x))"


def test_contrapositive_canonicalizes_to_the_direct_form(ont, lex):
    direct = canonicalize(parse_lf("(A x)(raven(x) -> black(x))"), ont, lex)
    contra = canonicalize(parse_lf("(A x)((! black(x)) -> (! raven(x)))"), ont, lex)
    assert direct == contra


def test_random_contrapositive_pairs_share_a_canonical_form(ont, lex):
    rng = random.Random(906)
    unary = ["articulate", "loud", "beautiful", "red", "black"]
    for _ in range(200):
        vtype = rng.choice(ont.nodes)
        literals = [Atom(p, ("x",)) for p in rng.sample(unary, rng.randint(1, 3))]
        if len(literals) > 1:
            # only inner literals may flip: a negated top node would cancel
            # against the contrapositive's outer negation before the
            # contraposition pass ever sees the implication
            literals = [Not(a) if rng.random() < 0.3 else a for a in literals]
        body = conj(literals)
        membership = Atom(vtype, ("x",))
        direct = Quant(QuantKind.FORALL, "x", None, Implies(membership, body))
        flipped = Quant(QuantKind.FORALL, "x", None, Implies(Not(body), Not(membership)))
        assert alpha_equal(canonicalize(direct, ont, lex), canonicalize(flipped, ont, lex))


def test_double_negation_eliminated(ont, lex):
    got = canonicalize(parse_lf("(E x :: person)((! (! loud(x))))"), ont, lex)
    assert got == parse_lf("(E x :: person)(loud(x))")


def test_membership_lifts_through_quantifier_prefix(ont, lex):
    got = canonicalize(
        parse_lf("(E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))"),
        ont,
        lex,
    )
    assert pretty(got) == "(E o :: omelet)(E b :: beer)(and (loud(o)) (want(o, b)))"


def test_conjuncts_sort_by_printed_form(ont, lex):
    got = canonicalize(
        parse_lf("(E x :: person)(and (loud(x)) (articulate(x)) (beautiful(x)))"),
        ont,
        lex,
    )
    assert pretty(got) == "(E x :: person)(and (articulate(x)) (beautiful(x)) (loud(x)))"


def test_canonicalize_keeps_unrestricted_quantifier_without_membership(ont, lex):
    got = canonicalize(parse_lf("(E x)(loud(x))"), ont, lex)
    assert got == parse_lf("(E x)(loud(x))")


def test_relation_atoms_are_valid_predicates(ont, lex):
    source = "(E p :: person)(E f :: omelet)(EATING(p, f))"
    assert pretty(canonicalize(parse_lf(source), ont, lex)) == source


def test_lone_membership_atom_is_stuck(ont, lex):
    with pytest.raises(CanonicalizationError, match="type name 'person'"):
        canonicalize(parse_lf("(E x)(person(x))"), ont, lex)
    # the outer binder lifts first, and the last conjunct stays as the scope
    with pytest.raises(CanonicalizationError, match="type name 'omelet'"):
        canonicalize(parse_lf("(E x)(E y)(and (person(x)) (omelet(y)))"), ont, lex)


def test_membership_of_constant_is_stuck(ont, lex):
    with pytest.raises(CanonicalizationError, match="type name 'person'"):
        canonicalize(parse_lf("(E x)(and (person(Julie)) (loud(x)))"), ont, lex)


def test_membership_under_typed_binder_is_stuck(ont, lex):
    with pytest.raises(CanonicalizationError, match="type name 'person'"):
        canonicalize(parse_lf("(E x :: person)(and (person(x)) (loud(x)))"), ont, lex)


def test_membership_lifts_before_the_universal_takes_its_antecedent(ont, lex):
    got = canonicalize(
        parse_lf("(E x)(A y)(and (omelet(x)) (raven(y) -> black(y)))"), ont, lex
    )
    assert pretty(got) == "(E x :: omelet)(A y :: raven)(black(y))"


def test_binders_look_again_when_the_matrix_shrinks_to_a_quantifier(ont, lex):
    # lifting omelet(x) leaves the inner prefix as the matrix, and only
    # then can w reach person(w)
    got = canonicalize(
        parse_lf("(E w)(E x)(and (omelet(x)) (E z)(and (beer(z)) (person(w)) (want(w, z))))"),
        ont,
        lex,
    )
    assert pretty(got) == "(E w :: person)(E x :: omelet)(E z :: beer)(want(w, z))"


@pytest.mark.parametrize(
    "source",
    [
        "(E x)(A y)(raven(y) -> (and (omelet(x)) (black(y))))",
        "(E x)(A y :: raven)(and (omelet(x)) (black(y)))",
    ],
)
def test_membership_never_lifts_across_a_restricted_universal(ont, lex, source):
    # with no ravens the input holds whatever omelet(x) says, while
    # (E x :: omelet)(A y :: raven)(black(y)) would demand an omelet
    with pytest.raises(CanonicalizationError, match="type name 'omelet'.*no rewrite can lift it"):
        canonicalize(parse_lf(source), ont, lex)


def test_membership_lifts_into_the_innermost_binder_of_its_variable(ont, lex):
    # the parser forbids shadowing, but a form built through the API may have it
    x = lambda pred: Atom(pred, ("x",))
    form = Quant(K.EXISTS, "x", None, Quant(K.EXISTS, "x", None, And((x("omelet"), x("loud")))))
    got = canonicalize(form, ont, lex)
    assert got == Quant(K.EXISTS, "x", None, Quant(K.EXISTS, "x", "omelet", x("loud")))
    assert pretty(got) == "(E x)(E x :: omelet)(loud(x))"


def test_unknown_predicate_rejected(ont, lex):
    with pytest.raises(CanonicalizationError, match="unknown predicate 'sings'"):
        canonicalize(parse_lf("(E x)(sings(x))"), ont, lex)


def test_canonicalize_idempotent_on_random_forms(ont, lex):
    rng = random.Random(903)
    for _ in range(500):
        form = random_form(rng, max_depth=6)
        once = canonicalize(form, ont, lex)
        assert canonicalize(once, ont, lex) == once
    for _ in range(500):
        form = random_liftable_form(rng)
        try:
            once = canonicalize(form, ont, lex)
        except CanonicalizationError:
            continue
        assert canonicalize(once, ont, lex) == once


def _arities(lex):
    arities = {name: sig.arity for name, sig in lex.signatures.items()}
    arities.update((rel.name, 2) for rel in lex.relations)
    return arities


def test_canonicalize_preserves_meaning_in_finite_models(ont, lex):
    # whenever canonicalization succeeds, the canonical form holds in exactly
    # the models where the input holds; models may leave types empty
    rng = random.Random(907)
    arities = _arities(lex)
    models = [random_model(rng, ont.parent, arities) for _ in range(30)]
    forms = [random_form(rng, max_depth=4) for _ in range(200)]
    forms += [random_liftable_form(rng) for _ in range(800)]
    canonicalized = 0
    for form in forms:
        try:
            got = canonicalize(form, ont, lex)
        except CanonicalizationError:
            continue
        canonicalized += 1
        for model in models:
            assert holds(got, model) == holds(form, model), (pretty(form), pretty(got))
    assert canonicalized >= 350


def test_canonicalize_preserves_atom_content_on_random_forms(ont, lex):
    # none of these forms contain membership atoms, so rewriting may only
    # reorder and restructure: the predicate multiset and the constants stay
    rng = random.Random(904)
    for _ in range(200):
        form = random_form(rng, max_depth=5)
        got = canonicalize(form, ont, lex)
        assert sorted(a.pred for a in atoms(got)) == sorted(a.pred for a in atoms(form))
        assert set(constants(got)) == set(constants(form))


# ----------------------------------------------------------------------
# alpha equality
# ----------------------------------------------------------------------


def test_alpha_equal_renames_bound_variables():
    a = parse_lf("(A x :: raven)(black(x))")
    b = parse_lf("(A y :: raven)(black(y))")
    assert alpha_equal(a, b)


def test_alpha_equal_respects_structure():
    a = parse_lf("(A x :: raven)(black(x))")
    assert not alpha_equal(a, parse_lf("(E x :: raven)(black(x))"))  # kind
    assert not alpha_equal(a, parse_lf("(A x :: bird)(black(x))"))  # restriction
    assert not alpha_equal(a, parse_lf("(A x :: raven)(red(x))"))  # predicate
    assert not alpha_equal(a, parse_lf("(A x)(black(x))"))  # missing restriction


def test_alpha_equal_tracks_bindings_not_spellings():
    a = parse_lf("(E x)(E y)(want(x, y))")
    b = parse_lf("(E y)(E x)(want(y, x))")
    crossed = parse_lf("(E y)(E x)(want(x, y))")
    assert alpha_equal(a, b)
    assert not alpha_equal(a, crossed)


def test_alpha_equal_constants_compare_literally():
    assert alpha_equal(parse_lf("beautiful(Julie)"), parse_lf("beautiful(Julie)"))
    assert not alpha_equal(parse_lf("beautiful(Julie)"), parse_lf("beautiful(Jules)"))


def test_alpha_equal_on_random_forms_is_reflexive():
    rng = random.Random(905)
    for _ in range(100):
        form = random_form(rng, max_depth=5)
        assert alpha_equal(form, form)


# ----------------------------------------------------------------------
# the nesting cap
# ----------------------------------------------------------------------


def test_nesting_is_capped_in_text_and_in_api_built_forms(ont, lex):
    def negated(depth):
        return "(! " * depth + "loud(Julie)" + ")" * depth

    form = parse_lf(negated(MAX_NESTING))
    assert canonicalize(form, ont, lex) == Atom("loud", ("Julie",))  # an even count cancels
    with pytest.raises(NestingError, match="^input nested too deeply$"):
        parse_lf(negated(MAX_NESTING + 1))
    with pytest.raises(NestingError, match="^input nested too deeply$"):
        canonicalize(Not(form), ont, lex)


def test_a_form_at_the_cap_round_trips_through_pretty(ont, lex):
    # pretty groups the matrix atom, one parenthesis below the last level;
    # the parser does not count that parenthesis against the cap.
    form = Quant(K.EXISTS, "x", "person", Atom("loud", ("x",)))
    for _ in range(MAX_NESTING - 1):
        form = Not(form)
    assert parse_lf(pretty(form)) == form
    canonicalize(form, ont, lex)
    with pytest.raises(NestingError):
        parse_lf(pretty(Not(form)))
    with pytest.raises(NestingError):
        canonicalize(Not(form), ont, lex)


def test_grouping_parentheses_cannot_nest_without_bound():
    def grouped(depth):
        return "(" * depth + "loud(Julie)" + ")" * depth

    assert parse_lf(grouped(MAX_NESTING + 1)) == Atom("loud", ("Julie",))
    with pytest.raises(NestingError, match="^input nested too deeply$"):
        parse_lf(grouped(MAX_NESTING + 2))
    with pytest.raises(NestingError, match="^input nested too deeply$"):
        parse_lf(grouped(100_000))


def test_walks_and_printing_survive_api_built_depth():
    loud = Atom("loud", ("Julie",))
    negated = loud
    for _ in range(1_000):
        negated = Not(negated)
    assert binders(negated) == []
    assert constants(negated) == ["Julie"]
    with pytest.raises(NestingError, match="^input nested too deeply$"):
        pretty(negated)
    for wrap in (Not, lambda f: And((loud, f)), lambda f: Implies(loud, f)):
        at_cap = loud
        for _ in range(MAX_NESTING):
            at_cap = wrap(at_cap)
        parse_lf(pretty(at_cap))  # the parser takes what pretty prints at the cap
        with pytest.raises(NestingError):
            pretty(wrap(at_cap))

    names = [f"x{k}" for k in range(1_000)]
    prefixed = conj([Atom("want", (name, "Julie")) for name in names])
    for name in reversed(names):
        prefixed = Quant(K.EXISTS, name, "person", prefixed)
    assert binders(prefixed) == [(name, "person") for name in names]
    assert constants(prefixed) == ["Julie"]
    assert alpha_equal(parse_lf(pretty(prefixed)), prefixed)


def test_equality_and_hash_read_a_long_prefix_in_a_loop():
    names = [f"x{k}" for k in range(1_000)]
    matrix = conj([Atom("want", (name, "Julie")) for name in names])
    prefixed = matrix
    for name in reversed(names):
        prefixed = Quant(K.EXISTS, name, "person", prefixed)
    again = parse_lf(pretty(prefixed))
    assert again == prefixed
    assert hash(again) == hash(prefixed)
    assert len({again, prefixed}) == 1
    # a difference anywhere in the prefix or the matrix is seen
    retyped = matrix
    for name in reversed(names):
        retyped = Quant(K.EXISTS, name, "beer" if name == "x999" else "person", retyped)
    assert retyped != prefixed
    assert Quant(K.EXISTS, "x0", "person", matrix) != Quant(K.FORALL, "x0", "person", matrix)
    assert Quant(K.EXISTS, "x0", "person", matrix) != Quant(K.EXISTS, "y", "person", matrix)
    assert Quant(K.EXISTS, "x0", None, matrix) != Quant(K.EXISTS, "x0", "person", matrix)
    assert prefixed != matrix and matrix != prefixed
    assert Quant(K.EXISTS, "x0", "person", matrix) != Quant(K.EXISTS, "x0", "person", prefixed)
