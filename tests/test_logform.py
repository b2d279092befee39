import inspect
import random
import re
from enum import Enum

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
    analyze,
    atoms,
    canonicalize,
    conj,
    parse_lf,
    pretty,
)
from ontologik.forms import with_prefix
from ontologik.logform import MAX_NESTING

from oracles import (
    canonical_outcome,
    holds,
    mangle_lf,
    parse_outcome,
    random_form,
    random_liftable_form,
    random_model,
    reference_canonicalize,
    reference_parse_lf,
    renamed_apart,
)

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
        case("(E x)(loud(x) - red(x))", "unexpected character '-'", 14, "unexpected character"),
        case("(E x)(loud(x) > red(x))", "unexpected character '>'", 14, "unexpected character"),
        case("(E x ::: person)(loud(x))", "unexpected character ':'", 7, "unexpected character"),
        case("(E x)(loud(x)->)-", "unexpected character '-'", 16, "unexpected character"),
        case("(9x)", "unexpected character '9'", 1, "unexpected character"),
        case("(E x)(loud(x9, 9x))", "unexpected character '9'", 15, "unexpected character"),
        # one stray character per rule of the reader's offsets, each position from reference_parse_lf
        case("(E x)(lo:ud(x))", "unexpected character ':'", 8, "unexpected character"),
        case("(E 1x)(loud(x))", "unexpected character '1'", 3, "unexpected character"),
        case("(E x :::person)(loud(x))", "unexpected character ':'", 7, "unexpected character"),
        case("(E x)(loud(x) -red(x))", "unexpected character '-'", 14, "unexpected character"),
        case("(E x)(loud(x9é))", "unexpected character 'é'", 13, "unexpected character"),
        case("(E x)(loud(x)) ->", "trailing input '->'", 15, "trailing input"),
        case("(E x)(loud(x)) ::::", "trailing input '::'", 15, "trailing input"),
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
    # any whitespace that str.split splits at, such as the separator \x1c
    assert parse_lf("(E\x1cx\x85::\u3000person)(loud(x))\x1c") == parse_lf("(E x :: person)(loud(x))")
    # a digit inside an identifier starts no new token
    assert parse_lf("(E v10x)(loud(v10x))") == Quant(K.EXISTS, "v10x", None, Atom("loud", ("v10x",)))


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


def _bound_names(form):
    # the variable of every binder in the form, shadowed or not
    match form:
        case Quant(_, var, _, body):
            return [var] + _bound_names(body)
        case And(items):
            return [name for item in items for name in _bound_names(item)]
        case Not(item):
            return _bound_names(item)
        case Implies(antecedent, consequent):
            return _bound_names(antecedent) + _bound_names(consequent)
    return []


def _random_forms(rng):
    return [random_form(rng, max_depth=5) for _ in range(150)] + [
        random_liftable_form(rng) for _ in range(150)
    ]


def test_whitespace_between_tokens_does_not_change_the_form():
    rng = random.Random(908)
    for form in _random_forms(rng):
        names = _bound_names(form)
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


def test_the_reader_matches_its_frozen_reference_on_mangled_texts():
    # Printed forms with one to three edits each: parse_lf returns the form
    # the original reader returned, or raises its class, message and position.
    rng = random.Random(918)
    seen = {"ok": 0, "unexpected character": 0, "other": 0}
    for _ in range(2_000):
        form = random_form(rng, max_depth=5) if rng.random() < 0.5 else random_liftable_form(rng)
        text = pretty(form)
        for _ in range(10):
            source = mangle_lf(rng, text)
            expected = parse_outcome(reference_parse_lf, source)
            assert parse_outcome(parse_lf, source) == expected, source
            if expected[0] == "ok":
                seen["ok"] += 1
            else:
                seen["unexpected character" if "unexpected character" in expected[1] else "other"] += 1
    assert sum(seen.values()) == 20_000
    assert min(seen.values()) >= 1_000, seen


# ----------------------------------------------------------------------
# structural walks
# ----------------------------------------------------------------------


def test_atoms_left_to_right():
    form = parse_lf("(A x)(raven(x) -> black(x))")
    assert [a.pred for a in atoms(form)] == ["raven", "black"]


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
        vtype = rng.choice(tuple(ont.parent))
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


@pytest.mark.parametrize(
    "form, message",
    [
        # shapes only the API can build; they printed as text parse_lf rejects
        (And(()), "^empty conjunction$"),
        (Quant(K.EXISTS, "x", None, And(())), "^empty conjunction$"),
        (Quant(K.EXISTS, "x", None, "junk"), "^not a form: 'junk'$"),
        (Not("junk"), "^not a form: 'junk'$"),
        (And((Atom("loud", ("Julie",)), "junk")), "^not a form: 'junk'$"),
    ],
)
def test_api_built_non_forms_are_canonicalization_errors(ont, lex, form, message):
    with pytest.raises(CanonicalizationError, match=message):
        canonicalize(form, ont, lex)
    with pytest.raises(CanonicalizationError, match=message):
        analyze(form, ont, lex)
    with pytest.raises(CanonicalizationError, match=message):
        pretty(form)


class _Atom(Atom):
    pass


class _And(And):
    pass


class _Not(Not):
    pass


class _Implies(Implies):
    pass


class _Quant(Quant):
    pass


def _rebuilt(f, atom=_Atom, and_=_And, not_=_Not, implies=_Implies, quant=_Quant):
    # ``f`` built again from the given node classes
    parts = (atom, and_, not_, implies, quant)
    if isinstance(f, Atom):
        return atom(f.pred, f.args)
    if isinstance(f, And):
        return and_(tuple(_rebuilt(i, *parts) for i in f.items))
    if isinstance(f, Not):
        return not_(_rebuilt(f.item, *parts))
    if isinstance(f, Implies):
        return implies(_rebuilt(f.antecedent, *parts), _rebuilt(f.consequent, *parts))
    return quant(f.kind, f.var, f.vtype, _rebuilt(f.body, *parts))


@pytest.mark.parametrize(
    "source, typed",
    [
        ("(E x)(and (omelet(x)) (loud(x)))", "(E x :: person)(E x2 :: omelet)(and (EATING(x, x2)) (loud(x)))"),
        ("(A x)((! black(x)) -> (! raven(x)))", "(A x :: raven)(black(x))"),
        ("(E y :: person)(and (! (! red(y))) (want(y, Julie)))", "(E y :: person)(and (red(y)) (want(y, Julie)))"),
    ],
)
def test_a_form_built_from_node_subclasses_reads_like_its_base(ont, lex, source, typed):
    base = parse_lf(source)
    sub = _rebuilt(base)
    assert type(sub) is not type(base)
    assert pretty(sub) == pretty(base)
    assert pretty(canonicalize(sub, ont, lex)) == pretty(canonicalize(base, ont, lex))
    got, want = analyze(sub, ont, lex), analyze(base, ont, lex)
    assert got.text == want.text == typed
    assert got.trace == want.trace
    assert got.missing_text == want.missing_text
    assert [(type(a), pretty(a)) for a in atoms(sub)] == [(_Atom, pretty(a)) for a in atoms(base)]
    assert alpha_equal(sub, base) and alpha_equal(base, sub)


@pytest.mark.parametrize("junk", ["junk", And(()), Atom, None])
def test_a_non_form_under_the_last_level_is_named_and_one_level_lower_is_too_deep(ont, lex, junk):
    # the nesting check comes before the node's class is read
    form = junk
    for _ in range(MAX_NESTING - 1):
        form = Not(form)
    message = "^empty conjunction$" if isinstance(junk, And) else "^not a form: "
    calls = (pretty, lambda f: canonicalize(f, ont, lex), lambda f: analyze(f, ont, lex), lambda f: alpha_equal(f, f))
    for call in calls:
        with pytest.raises(CanonicalizationError, match=message):
            call(form)
        with pytest.raises(NestingError, match="^input nested too deeply$"):
            call(Not(form))


def test_a_quantifier_kind_that_is_no_quant_kind_cannot_be_printed(ont, lex):
    x = ("x",)
    # read as existential, "A" would lift omelet(x): "all omelets are loud"
    lifted = Quant("A", "x", None, And((Atom("omelet", x), Atom("loud", x))))
    inner = Quant("E", "x", None, Atom("loud", x))
    nested = Quant(QuantKind.EXISTS, "y", "person", inner)
    # a member of another Enum has the _value_ a QuantKind has
    foreign = Quant(Enum("Kind", {"E": "E"}).E, "x", None, Atom("loud", x))
    for form, bad in ((inner, inner), (lifted, lifted), (nested, inner), (foreign, foreign)):
        message = "^not a form: " + re.escape(repr(bad)) + "$"
        for call in (pretty, lambda f: canonicalize(f, ont, lex), lambda f: analyze(f, ont, lex)):
            with pytest.raises(CanonicalizationError, match=message):
                call(form)


def _stuck(pred: str, var: str = "x") -> str:
    return f"type name '{pred}' used as a predicate where no rewrite can lift it: {pred}({var})"


@pytest.mark.parametrize(
    "source, message",
    [
        # a binder takes its least membership conjunct by printed form
        ("(E x)(and (raven(x)) (bird(x)) (black(x)))", _stuck("raven")),
        ("(E x)(and (bird(x)) (raven(x)) (black(x)))", _stuck("raven")),
        # the error names the first bad atom of the canonical form
        ("(E x)(and (nope(x)) (! car(x)) (loud(x)))", _stuck("car")),
        ("(E x)(and (! car(x)) (! aaa(x)))", "unknown predicate 'aaa'"),
        # a membership atom inside a nested prefix is out of the outer binder's reach
        ("(E x)(and (black(x)) (E y)(and (omelet(x)) (beer(y)) (want(x, y))))", _stuck("omelet")),
        # a universal takes a type antecedent only on its own variable
        ("(E x :: person)(A y)(omelet(x) -> loud(y))", _stuck("omelet")),
        # when every conjunct would be taken, only the outermost binders take theirs
        ("(E x)(E y)(and (omelet(x)) (person(y)))", _stuck("person", "y")),
        ("(E y)(E x)(and (omelet(x)) (person(y)))", _stuck("omelet")),
        ("(E x)(E y)(E z)(and (omelet(x)) (person(y)) (beer(z)))", _stuck("beer", "z")),
    ],
)
def test_lifting_choice_and_error_precedence_are_pinned(ont, lex, source, message):
    with pytest.raises(CanonicalizationError) as err:
        canonicalize(parse_lf(source), ont, lex)
    assert str(err.value) == message


def test_the_outermost_binders_take_theirs_and_leave_the_scope(ont, lex):
    got = canonicalize(parse_lf("(E x)(E y)(and (omelet(x)) (person(y)) (want(y, x)))"), ont, lex)
    assert pretty(got) == "(E x :: omelet)(E y :: person)(want(y, x))"


def _shuffled(form, rng):
    # the same form with the items of every conjunction in a random order
    match form:
        case And(items):
            items = [_shuffled(item, rng) for item in items]
            rng.shuffle(items)
            return And(tuple(items))
        case Not(item):
            return Not(_shuffled(item, rng))
        case Implies(antecedent, consequent):
            return Implies(_shuffled(antecedent, rng), _shuffled(consequent, rng))
        case Quant(kind, var, vtype, body):
            return Quant(kind, var, vtype, _shuffled(body, rng))
    return form


def _canonical_text_or_error(form, ont, lex):
    try:
        return pretty(canonicalize(form, ont, lex))
    except CanonicalizationError as err:
        return type(err), str(err)


def test_canonical_form_and_error_do_not_depend_on_conjunct_order(ont, lex):
    rng = random.Random(910)
    for k in range(2_000):
        form = random_form(rng, max_depth=6) if k % 2 else random_liftable_form(rng)
        expected = _canonical_text_or_error(form, ont, lex)
        assert _canonical_text_or_error(_shuffled(form, rng), ont, lex) == expected, pretty(form)


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


def _constants(form):
    # proper names: the oracle's variables are lowercase
    return {arg for atom in atoms(form) for arg in atom.args if arg[0].isupper()}


def test_canonicalize_preserves_atom_content_on_random_forms(ont, lex):
    # none of these forms contain membership atoms, so rewriting may only
    # reorder and restructure: the predicate multiset and the constants stay
    rng = random.Random(904)
    for _ in range(200):
        form = random_form(rng, max_depth=5)
        got = canonicalize(form, ont, lex)
        assert sorted(a.pred for a in atoms(got)) == sorted(a.pred for a in atoms(form))
        assert _constants(got) == _constants(form)


def test_canonicalize_matches_its_frozen_reference_on_api_built_forms(ont, lex):
    # Built, not parsed, so binders may shadow one another: canonicalize
    # returns the form the original canonicalizer returned, with its text,
    # or raises its class and message.
    rng = random.Random(919)
    seen = {"ok": 0, "CanonicalizationError": 0}
    for k in range(20_000):
        form = random_form(rng, max_depth=6) if k % 2 else random_liftable_form(rng, max_depth=rng.randint(1, 3))
        expected = canonical_outcome(reference_canonicalize, form, ont, lex)
        assert canonical_outcome(canonicalize, form, ont, lex) == expected, repr(form)
        seen[expected[0]] += 1
    assert sum(seen.values()) == 20_000
    assert min(seen.values()) >= 2_000, seen


def test_canonicalize_matches_its_frozen_reference_on_the_benchmark_shapes(ont, lex):
    # bench/gen.py's largest shapes, built here: a 300-binder existential
    # prefix over one membership and one adjective atom per binder, shuffled;
    # the same prefix over memberships alone, so the outermost binders take
    # theirs and one stays stuck; and a 400-conjunct conjunction of one-binder
    # prefixes over such a pair.
    rng = random.Random(920)
    types = ("car", "ball", "raven", "beer", "omelet", "food", "animal", "artifact", "person")
    adjectives = ("red", "black", "beautiful", "loud", "articulate")

    def pair(var):
        pair = [Atom(rng.choice(types), (var,)), Atom(rng.choice(adjectives), (var,))]
        rng.shuffle(pair)
        return pair

    names = [f"v{i}x" for i in range(300)]
    items = [atom for var in names for atom in pair(var)]
    rng.shuffle(items)
    prefix = [(K.EXISTS, var, None) for var in names]
    memberships = And(tuple(item for item in items if item.pred in types))
    wide = And(tuple(Quant(K.EXISTS, f"v{i}x", None, And(tuple(pair(f"v{i}x")))) for i in range(400)))
    outcomes = []
    for form in (with_prefix(prefix, And(tuple(items))), with_prefix(prefix, memberships), wide):
        expected = canonical_outcome(reference_canonicalize, form, ont, lex)
        assert canonical_outcome(canonicalize, form, ont, lex) == expected
        outcomes.append(expected[0])
    assert outcomes == ["ok", "CanonicalizationError", "ok"]


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


def test_alpha_equal_tells_apart_api_built_names_that_are_no_identifiers():
    loud = Atom("loud", ("Julie",))
    # a name that reads like two, like a bound variable's level, or like more syntax
    assert not alpha_equal(Atom("want", ("A, B",)), Atom("want", ("A", "B")))
    assert not alpha_equal(parse_lf("(E x)(loud(x))"), Quant(K.EXISTS, "x", None, Atom("loud", ("#0",))))
    assert not alpha_equal(Atom("want(A", ("B",)), Atom("want", ("A(B",)))
    assert not alpha_equal(
        Quant(K.EXISTS, "x", "person)(E :: omelet", loud),
        Quant(K.EXISTS, "x", "person", Quant(K.EXISTS, "y", "omelet", loud)),
    )
    assert not alpha_equal(Quant(K.EXISTS, "x", "", loud), Quant(K.EXISTS, "x", None, loud))


@pytest.mark.parametrize(
    "form",
    [
        Not("junk"),
        Quant(K.EXISTS, "x", None, "junk"),
        And((Atom("loud", ("Julie",)), "junk")),
        Implies(Atom("loud", ("Julie",)), "junk"),
    ],
)
def test_alpha_equal_and_atoms_refuse_a_non_form(form):
    with pytest.raises(CanonicalizationError, match="^not a form: 'junk'$"):
        alpha_equal(form, form)
    with pytest.raises(CanonicalizationError, match="^not a form: 'junk'$"):
        list(atoms(form))


def test_alpha_equal_refuses_a_kind_that_is_no_quant_kind():
    x = ("x",)
    inner = Quant("E", "x", None, Atom("loud", x))
    nested = Quant(QuantKind.EXISTS, "y", "person", inner)
    foreign = Quant(Enum("Kind", {"E": "E"}).E, "x", None, Atom("loud", x))
    real = Quant(QuantKind.EXISTS, "x", None, Atom("loud", x))
    # the same string kind on both sides compared equal, where pretty and canonicalize raise
    for a, b, bad in ((inner, inner, inner), (nested, nested, inner), (foreign, foreign, foreign),
                      (real, inner, inner), (inner, real, inner)):
        with pytest.raises(CanonicalizationError, match="^not a form: " + re.escape(repr(bad)) + "$"):
            alpha_equal(a, b)


def test_alpha_equal_ignores_conjunct_order(ont, lex):
    loud, red = Atom("loud", ("Julie",)), Atom("red", ("Julie",))
    assert alpha_equal(And((loud, red)), And((red, loud)))
    assert not alpha_equal(And((loud, red)), And((red, red)))
    a = canonicalize(parse_lf("(A x)(A y)(and (want(x, y)) (want(y, y)))"), ont, lex)
    b = canonicalize(parse_lf("(A b)(A a)(and (want(b, a)) (want(a, a)))"), ont, lex)
    assert pretty(b) == "(A b)(A a)(and (want(a, a)) (want(b, a)))"  # the display order keeps its names
    assert alpha_equal(a, b)


def test_alpha_equal_forms_of_different_shapes_differ():
    shapes = [parse_lf(source) for source in (
        "loud(Julie)", "(! loud(Julie))", "(and (loud(Julie)) (red(Julie)))",
        "(loud(Julie) -> red(Julie))", "(E x)(loud(x))",
    )]
    for a in shapes:
        for b in shapes:
            assert alpha_equal(a, b) is (a is b)


def test_alpha_equal_on_random_forms_is_reflexive(ont, lex):
    # and blind to bound names, also after canonicalization, which sorts
    # conjuncts by printed text, bound names included
    rng = random.Random(905)
    for _ in range(100):
        form = random_form(rng, max_depth=5)
        assert alpha_equal(form, form)
        assert alpha_equal(form, renamed_apart(form, rng))
    k = canonical = 0
    while canonical < 10_000:
        k += 1
        form = random_form(rng, max_depth=6) if k % 2 else random_liftable_form(rng)
        renamed = renamed_apart(form, rng)
        try:
            cf = canonicalize(form, ont, lex)
        except CanonicalizationError:
            with pytest.raises(CanonicalizationError):
                canonicalize(renamed, ont, lex)
            continue
        canonical += 1
        again = canonicalize(renamed, ont, lex)
        assert alpha_equal(cf, again) and alpha_equal(again, cf), (pretty(cf), pretty(again))


def _edited(form, target, edit):
    # ``form`` with its node ``target`` (by identity) replaced by ``edit(target)``
    if form is target:
        return edit(form)
    match form:
        case And(items):
            return And(tuple(_edited(item, target, edit) for item in items))
        case Not(item):
            return Not(_edited(item, target, edit))
        case Implies(antecedent, consequent):
            return Implies(_edited(antecedent, target, edit), _edited(consequent, target, edit))
        case Quant(kind, var, vtype, body):
            return Quant(kind, var, vtype, _edited(body, target, edit))
    return form


def _nodes(form):
    match form:
        case And(items):
            return [form, *(node for item in items for node in _nodes(item))]
        case Not(item) | Quant(_, _, _, item):
            return [form, *_nodes(item)]
        case Implies(antecedent, consequent):
            return [form, *_nodes(antecedent), *_nodes(consequent)]
    return [form]


def _swap_binders(q):
    inner = q.body
    return Quant(inner.kind, inner.var, inner.vtype, Quant(q.kind, q.var, q.vtype, inner.body))


def _variant(form, rng):
    # a copy of ``form`` that may or may not mean the same: renamed apart,
    # reordered, or with one edit that a name-free key must not lose
    nodes = _nodes(form)
    roll = rng.randrange(7)
    if roll == 0:
        return renamed_apart(form, rng)
    if roll == 1:
        return _shuffled(form, rng)
    if roll == 2 and (pairs := [n for n in nodes if isinstance(n, Quant) and isinstance(n.body, Quant)]):
        return renamed_apart(_edited(form, rng.choice(pairs), _swap_binders), rng)
    if roll == 3 and (binary := [n for n in nodes if isinstance(n, Atom) and len(n.args) == 2]):
        return _shuffled(_edited(form, rng.choice(binary), lambda a: Atom(a.pred, a.args[::-1])), rng)
    if roll == 4 and (implications := [n for n in nodes if isinstance(n, Implies)]):
        return _edited(form, rng.choice(implications), lambda i: Implies(i.consequent, i.antecedent))
    quants = [n for n in nodes if isinstance(n, Quant)]
    if roll == 5:
        kind = rng.choice(list(QuantKind))
        return _edited(form, rng.choice(quants), lambda q: Quant(kind, q.var, q.vtype, q.body))
    vtype = rng.choice((None, "entity", "person", "raven"))
    return _edited(form, rng.choice(quants), lambda q: Quant(q.kind, q.var, vtype, q.body))


def test_alpha_equal_never_joins_forms_a_model_tells_apart(ont, lex):
    # soundness: a pair that alpha_equal calls equal, before or after
    # canonicalization, holds in the same sampled models
    rng = random.Random(906)
    models = [random_model(rng, ont.parent, _arities(lex)) for _ in range(20)]
    equal = unequal = 0
    for k in range(3_000):
        form = random_form(rng, max_depth=5) if k % 2 else random_liftable_form(rng)
        other = _variant(form, rng)
        try:
            pairs = [(form, other), (canonicalize(form, ont, lex), canonicalize(other, ont, lex))]
        except CanonicalizationError:
            pairs = [(form, other)]
        for a, b in pairs:
            if not alpha_equal(a, b):
                unequal += 1
                continue
            equal += 1
            for model in models:
                assert holds(a, model) == holds(b, model), (pretty(a), pretty(b))
    assert equal >= 1_000 and unequal >= 1_000


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


def test_a_quantifier_matrix_conjunction_takes_a_level_of_its_own(ont, lex):
    form = Quant(K.EXISTS, "x", "person", And((Atom("loud", ("x",)), Atom("red", ("x",)))))
    for _ in range(MAX_NESTING - 2):
        form = Not(form)
    for call in (pretty, lambda f: canonicalize(f, ont, lex), lambda f: analyze(f, ont, lex)):
        call(form)
        with pytest.raises(NestingError, match="^input nested too deeply$"):
            call(Not(form))


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
    for _ in range(2_000):
        negated = Not(negated)
    for call in (pretty, lambda f: alpha_equal(f, f)):
        with pytest.raises(NestingError, match="^input nested too deeply$"):
            call(negated)
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
