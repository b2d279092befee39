import pickle
import random

import pytest

from ontologik import (
    Lexicon,
    LexiconError,
    PredicateSignature,
    SalientRelation,
    analyze,
    load_lexicon,
    load_ontology,
    parse_lf,
    pretty,
)

from oracles import oracle_candidates, random_relations, random_tree, tree_source


def test_reference_lexicon_contents(lex):
    assert lex.signatures["articulate"].arg_types == ("person",)
    assert lex.signatures["want"].arg_types == ("animal", "entity")
    assert lex.signatures["want"].arity == 2
    [eating] = lex.relations
    assert (eating.name, eating.domain_type, eating.range_type) == ("EATING", "person", "food")
    assert lex.names["Julie"].declared_type == "person"


def test_atom_signature_covers_relations(lex):
    assert lex.atom_signature("loud") == lex.signatures["loud"]
    assert lex.atom_signature("EATING") == PredicateSignature("EATING", ("person", "food"))
    assert lex.atom_signature("unheard_of") is None


def test_a_declared_predicate_wins_over_a_relation_of_the_same_name(ont):
    # load_lexicon rejects the clash; a Lexicon built through the API is unchecked
    lex = Lexicon(
        {"eats": PredicateSignature("eats", ("person",))},
        (SalientRelation("eats", "person", "food", priority=0),),
    )
    assert lex.atom_signature("eats") == PredicateSignature("eats", ("person",))
    typed = analyze(parse_lf("(E x)(eats(x))"), ont, lex)
    assert pretty(typed.form) == "(E x :: person)(eats(x))"
    with pytest.raises(LexiconError, match=r"'eats' expects 1 argument\(s\), got 2"):
        analyze(parse_lf("(E x)(E y)(eats(x, y))"), ont, lex)


# ----------------------------------------------------------------------
# coercion candidate search
# ----------------------------------------------------------------------


def test_api_built_lexicon_indexes_itself_and_stays_frozen(ont):
    eating = SalientRelation("EATING", "person", "food", 0)
    lex = Lexicon(relations=[eating])
    assert lex.relations == (eating,)
    assert lex.atom_signature("EATING") == PredicateSignature("EATING", ("person", "food"))
    assert lex.coercion_candidates(ont, "person", "omelet") == [eating]
    # AttributeError, the base of dataclasses.FrozenInstanceError: the
    # package does not import dataclasses.
    with pytest.raises(AttributeError):
        lex.relations = ()
    assert lex.relations == (eating,)


def test_signatures_and_names_are_read_only_copies(lex):
    loud = PredicateSignature("loud", ("person",))
    given = {"loud": loud}
    built = Lexicon(signatures=given, relations=[], names={})
    given["red"] = PredicateSignature("red", ("entity",))
    assert dict(built.signatures) == {"loud": loud}
    with pytest.raises(TypeError):
        built.signatures["red"] = given["red"]
    with pytest.raises(TypeError):
        lex.names["Jules"] = lex.names["Julie"]
    assert pickle.loads(pickle.dumps(lex)) == lex


def test_coercion_candidates_reference(ont, lex):
    [rel] = lex.coercion_candidates(ont, "person", "omelet")
    assert rel.name == "EATING"
    # comparable on both sides counts, exact match not required
    assert [r.name for r in lex.coercion_candidates(ont, "animal", "food")] == ["EATING"]
    assert lex.coercion_candidates(ont, "person", "car") == []
    assert lex.coercion_candidates(ont, "car", "omelet") == []


def test_coercion_candidates_prefer_exact_matches(ont):
    source = """
    rel FEEDS(animal, food)
    rel EATING(person, omelet)
    rel TASTING(person, food)
    """
    lex = load_lexicon(source, ont)
    got = [r.name for r in lex.coercion_candidates(ont, "person", "omelet")]
    # exact range match first, then exact domain, then declaration order
    assert got == ["EATING", "TASTING", "FEEDS"]


def test_coercion_candidates_tie_breaks_by_declaration_order(ont):
    source = "rel FIRST(person, food)\nrel SECOND(person, food)"
    lex = load_lexicon(source, ont)
    got = [r.name for r in lex.coercion_candidates(ont, "person", "food")]
    assert got == ["FIRST", "SECOND"]


def test_coercion_candidates_match_the_scan_oracle_on_random_trees():
    rng = random.Random(419)
    for _ in range(120):
        parent = random_tree(rng, max_nodes=30)
        ont = load_ontology(tree_source(parent))
        rels = random_relations(rng, parent)
        lex = Lexicon(relations=[SalientRelation(*rel) for rel in rels])
        nodes = list(parent)
        for _ in range(40):
            target, source = rng.choice(nodes), rng.choice(nodes)
            got = [rel.name for rel in lex.coercion_candidates(ont, target, source)]
            assert got == oracle_candidates(parent, rels, target, source), (target, source)


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def test_load_skips_comments_and_blanks(ont):
    lex = load_lexicon("# nothing\n\npred happy(person)  # ok\n", ont)
    assert list(lex.signatures) == ["happy"]


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("pred happy", "malformed predicate"),
        ("pred happy()", "at least one argument"),
        ("pred person(entity)", "clashes with an ontology type"),
        ("pred happy(unicorn)", "unknown type 'unicorn'"),
        ("rel EATS(person)", "malformed relation"),
        ("rel EATS(person, unicorn)", "unknown type 'unicorn'"),
        ("name julie person", "malformed name"),
        ("name Julie :: unicorn", "unknown type 'unicorn'"),
        ("verb want(animal, entity)", "unrecognized declaration"),
    ],
)
def test_load_rejections(ont, line, fragment):
    with pytest.raises(LexiconError, match=fragment):
        load_lexicon(line, ont)


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("pred happy(person)\npred happy(animal)", "duplicate predicate"),
        ("rel R(person, food)\nrel R(animal, food)", "duplicate relation"),
        ("name Julie :: person\nname Julie :: animal", "duplicate name"),
        ("pred eats(person)\n# a comment\nrel eats(person, food)", "relation 'eats' clashes with a predicate"),
        ("rel eats(person, food)\n\npred eats(person)", "predicate 'eats' clashes with a relation"),
    ],
)
def test_load_duplicate_rejections(ont, source, fragment):
    with pytest.raises(LexiconError, match=fragment) as err:
        load_lexicon(source, ont)
    assert err.value.line == source.count("\n") + 1  # the later declaration's line


def test_load_reports_line_numbers(ont):
    with pytest.raises(LexiconError) as err:
        load_lexicon("pred happy(person)\npred broken(", ont)
    assert err.value.line == 2


def test_load_against_custom_ontology():
    ont = load_ontology("type thing\ntype tool isa thing")
    lex = load_lexicon("pred sharp(tool)\nname Ax :: tool", ont)
    assert lex.signatures["sharp"].arg_types == ("tool",)
    assert lex.names["Ax"].declared_type == "tool"
