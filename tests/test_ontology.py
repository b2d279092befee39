import random

import pytest

from ontologik import Ontology, OntologyError, SubsumptionVerdict, UnknownTypeError, load_ontology

from oracles import ancestor_chain, oracle_compare, oracle_subsumes, random_tree, tree_source

V = SubsumptionVerdict


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def test_load_minimal_tree():
    ont = load_ontology("type entity\ntype person isa entity\n")
    assert ont.root == "entity"
    assert len(ont) == 2
    assert "person" in ont and "entity" in ont
    assert ont.parent == {"entity": None, "person": "entity"}


def test_load_skips_comments_and_blanks():
    ont = load_ontology(
        """
        # the root
        type entity

        type person isa entity  # trailing comment
        """
    )
    assert ont.nodes == ("entity", "person")


def test_depths_and_ancestors(ont):
    assert ont.depth("entity") == 0
    assert ont.depth("person") == 4
    assert ont.ancestors("person") == ["person", "animal", "living", "physical", "entity"]
    assert ont.ancestors("entity") == ["entity"]


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("type entity\ngarbage here", "expected a 'type' declaration"),
        ("type entity\ntype a isa", "malformed declaration"),
        ("type entity\ntype a divides entity", "malformed declaration"),
        ("type Entity", "bad type name"),
        ("type entity\ntype B isa entity", "bad type name"),
        ("type entity\ntype entity isa entity", "cycle"),
        ("type entity\ntype other", "second root"),
        ("type entity\ntype a isa missing", "unknown parent"),
        ("type a isa b", "unknown parent"),
        ("# nothing\n\n", "missing root"),
        ("", "missing root"),
    ],
)
def test_load_rejections(source, fragment):
    with pytest.raises(OntologyError, match=fragment):
        load_ontology(source)


def test_load_reports_line_numbers():
    with pytest.raises(OntologyError) as err:
        load_ontology("type entity\n\ntype entity isa entity")
    assert err.value.line == 3
    assert str(err.value).startswith("line 3:")


def test_redeclaration_as_cycle():
    source = "type a\ntype b isa a\ntype c isa b\ntype b isa c"
    with pytest.raises(OntologyError, match="cycle"):
        load_ontology(source)


def test_redeclaration_as_multiple_parents():
    source = "type a\ntype b isa a\ntype c isa a\ntype b isa c"
    with pytest.raises(OntologyError, match="multiple parents"):
        load_ontology(source)


def test_redeclaration_same_edge_is_duplicate():
    source = "type a\ntype b isa a\ntype b isa a"
    with pytest.raises(OntologyError, match="duplicate type 'b'"):
        load_ontology(source)


def test_unknown_type_queries(ont):
    with pytest.raises(UnknownTypeError):
        ont.require("unicorn")
    with pytest.raises(UnknownTypeError):
        ont.subsumes("entity", "unicorn")


# ----------------------------------------------------------------------
# subsumption queries on the reference tree
# ----------------------------------------------------------------------


def test_subsumes_reflexive_and_ancestral(ont):
    assert ont.subsumes("person", "person")
    assert ont.subsumes("entity", "person")
    assert ont.subsumes("animal", "person")
    assert not ont.subsumes("person", "animal")
    assert not ont.subsumes("omelet", "car")


@pytest.mark.parametrize(
    "first, second, verdict",
    [
        ("person", "person", V.EQUAL),
        ("animal", "person", V.FIRST_SUBSUMES_SECOND),
        ("person", "animal", V.SECOND_SUBSUMES_FIRST),
        ("omelet", "car", V.INCOMPARABLE),
        ("beer", "food", V.INCOMPARABLE),
        ("entity", "raven", V.FIRST_SUBSUMES_SECOND),
    ],
)
def test_compare_examples(ont, first, second, verdict):
    assert ont.compare(first, second) is verdict


# ----------------------------------------------------------------------
# properties on random trees, checked against the ancestor-chain oracle
# ----------------------------------------------------------------------


def _pairs(rng, nodes, cap=300):
    if len(nodes) * len(nodes) <= cap:
        return [(a, b) for a in nodes for b in nodes]
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(cap)]


def test_subsumption_matches_oracle_on_random_trees():
    rng = random.Random(417)
    for _ in range(200):
        parent = random_tree(rng, max_nodes=50)
        ont = load_ontology(tree_source(parent))
        nodes = list(parent)
        for a, b in _pairs(rng, nodes):
            assert ont.subsumes(a, b) == oracle_subsumes(parent, a, b)
            got = ont.compare(a, b)
            want = oracle_compare(parent, a, b)
            assert (got, want) in {
                (V.EQUAL, "equal"),
                (V.FIRST_SUBSUMES_SECOND, "first"),
                (V.SECOND_SUBSUMES_FIRST, "second"),
                (V.INCOMPARABLE, "incomparable"),
            }


def test_partial_order_axioms_on_random_trees():
    rng = random.Random(418)
    for _ in range(200):
        parent = random_tree(rng, max_nodes=50)
        ont = load_ontology(tree_source(parent))
        nodes = list(parent)
        for t in nodes:
            assert ont.subsumes(t, t)  # reflexive
            assert ont.depth(t) == len(ancestor_chain(parent, t)) - 1
        for _ in range(100):
            a, b, c = (rng.choice(nodes) for _ in range(3))
            if ont.subsumes(a, b) and ont.subsumes(b, a):
                assert a == b  # antisymmetric
            if ont.subsumes(a, b) and ont.subsumes(b, c):
                assert ont.subsumes(a, c)  # transitive
