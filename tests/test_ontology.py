import copy
import pickle
import random

import pytest

from ontologik import Ontology, OntologyError, SubsumptionVerdict, UnknownTypeError, load_ontology
from ontologik.fixtures import lexicon_path, ontology_path

from oracles import (
    ancestor_chain,
    corrupt,
    ontology_data,
    oracle_compare,
    oracle_subsumes,
    outcome,
    pattern_load_ontology,
    random_tree,
    reference_labels,
    reference_load_ontology,
    resource_vocabulary,
    splice,
    tree_source,
)

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
    assert tuple(ont.parent) == ("entity", "person")


def test_depths(ont):
    assert ont.depth("entity") == 0
    assert ont.depth("person") == 4


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


def _loaded(source: str):
    return ontology_data(load_ontology(source))


def test_load_matches_the_frozen_reference_on_corrupted_fixtures():
    text = ontology_path().read_text()
    vocab = resource_vocabulary(text, lexicon_path().read_text())
    rng = random.Random(420)
    reached = set()
    for _ in range(10_000):
        source = corrupt(rng, text, vocab)
        want = outcome(reference_load_ontology, source)
        assert outcome(_loaded, source) == want, repr(source)
        reached.add(want[0] if want[0] == "ok" else want[1].split(": ", 1)[1].split(" '")[0])
    assert reached >= {
        "ok", "expected a", "malformed declaration", "bad type name", "duplicate type",
        "second root", "unknown parent",
    }


def test_redeclarations_match_the_frozen_reference():
    # random edits rarely re-declare a type under a new parent
    text = ontology_path().read_text()
    names = [line.split()[1] for line in text.splitlines() if line.startswith("type")]
    reached = set()
    for name in names:
        for up in names:
            for source in (f"{text}type {name} isa {up}\n", f"{text}type {name}\n"):
                want = outcome(reference_load_ontology, source)
                assert outcome(_loaded, source) == want, repr(source)
                reached.add(want[1].split(": ", 1)[1].split(" '")[0])
    assert reached == {"cycle:", "multiple parents for", "duplicate type"}


def test_load_matches_the_pattern_loader_on_spliced_declarations():
    # Blanks, marks and non-ASCII letters and digits spliced into the
    # declarations, where a pattern's \s and \w and str methods may part.
    text = ontology_path().read_text()
    rng = random.Random(2201)
    reached = set()
    for _ in range(20_000):
        source = splice(rng, text)
        want = outcome(lambda: ontology_data(pattern_load_ontology(source)))
        assert outcome(_loaded, source) == want, repr(source)
        reached.add(want[0] if want[0] == "ok" else want[1].split(": ", 1)[1].split(" '")[0])
    assert reached == {
        "ok", "expected a", "malformed declaration", "bad type name", "second root", "unknown parent",
    }


def test_unknown_type_queries(ont):
    # every query names the first unknown type, in argument order
    cases = [
        ("require", ("unicorn",), "unicorn"),
        ("depth", ("unicorn",), "unicorn"),
        ("comparable_count", ("unicorn",), "unicorn"),
        ("comparable_types", ("unicorn",), "unicorn"),
        ("subsumes", ("entity", "unicorn"), "unicorn"),
        ("subsumes", ("unicorn", "griffin"), "unicorn"),
        ("subsumes", ("griffin", "entity"), "griffin"),
        ("compare", ("unicorn", "griffin"), "unicorn"),
        ("compare", ("person", "griffin"), "griffin"),
        ("compare", ("griffin", "person"), "griffin"),
    ]
    for query, args, unknown in cases:
        with pytest.raises(UnknownTypeError) as err:
            getattr(ont, query)(*args)
        assert err.value.name == unknown, (query, args)
        assert str(err.value) == f"unknown type name '{unknown}'"


@pytest.mark.parametrize(
    "root, parent, fragment",
    [
        ("a", {"a": None, "b": "missing"}, "unknown parent 'missing' for 'b'"),
        ("a", {"a": None, "b": "c", "c": "b"}, "cycle: 'b'"),
        ("a", {"a": None, "b": "b"}, "cycle: 'b'"),
        ("a", {"a": None, "b": None}, "second root 'b'"),
        ("a", {"a": None, "b": "a", "c": "d", "d": "c", "e": "d"}, "cycle: 'c'"),
        ("x", {"a": None}, "root 'x' is not a parentless type"),
        ("a", {"a": "b", "b": None}, "root 'a' is not a parentless type"),
    ],
)
def test_api_built_parent_map_must_be_one_rooted_tree(root, parent, fragment):
    with pytest.raises(OntologyError, match=fragment):
        Ontology(root=root, parent=parent)


def test_parent_map_is_a_read_only_copy():
    parent = {"entity": None, "person": "entity"}
    ont = Ontology(root="entity", parent=parent)
    parent["unicorn"] = "entity"
    assert "unicorn" not in ont
    with pytest.raises(TypeError):
        ont.parent["unicorn"] = "entity"
    assert pickle.loads(pickle.dumps(ont)) == ont


def test_api_built_tree_may_list_a_child_before_its_parent():
    ont = Ontology(root="entity", parent={"person": "animal", "animal": "entity", "entity": None})
    assert ont.subsumes("entity", "person") and not ont.subsumes("person", "animal")
    assert ont.compare("person", "animal") is V.SECOND_SUBSUMES_FIRST
    assert [ont.depth(t) for t in ("entity", "animal", "person")] == [0, 1, 2]


def _is_preorder(seq: list[str], parent: dict[str, str | None]) -> bool:
    # each type hangs below the path from the first type to the one before it
    return all(parent[b] in ancestor_chain(parent, a) for a, b in zip(seq, seq[1:]))


def test_a_shuffled_parent_map_labels_the_same_tree():
    rng = random.Random(421)
    for _ in range(200):
        parent = random_tree(rng, max_nodes=40)
        items = list(parent.items())
        rng.shuffle(items)
        shuffled = dict(items)
        first, ont = Ontology("t0", parent), Ontology("t0", shuffled)
        assert ontology_data(ont)[2:] == reference_labels("t0", shuffled)
        nodes = list(parent)
        for a, b in _pairs(rng, nodes):
            assert ont.subsumes(a, b) == first.subsumes(a, b)
            assert ont.compare(a, b) is first.compare(a, b)
        for t in nodes:
            assert ont.depth(t) == first.depth(t)
            assert ont.comparable_count(t) == first.comparable_count(t)
            types = ont.comparable_types(t)
            below = [u for u in nodes if oracle_subsumes(parent, t, u)]
            subtree, above = types[: len(below)], types[len(below) :]
            assert subtree[0] == t and sorted(subtree) == sorted(below)
            assert _is_preorder(subtree, parent)
            assert above == ancestor_chain(parent, t)[1:]


def test_a_broken_shuffled_parent_map_names_the_type_the_reference_names():
    rng = random.Random(422)
    reached = set()
    for _ in range(2_000):
        tree = random_tree(rng, max_nodes=12)
        parent = dict(tree)
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(list(tree))
            defect = rng.randrange(3)
            if defect == 0:
                parent[name] = "missing"
            elif defect == 1:
                parent[name] = None
            else:  # a type of its own subtree as parent closes a loop
                parent[name] = rng.choice([u for u in tree if oracle_subsumes(tree, name, u)])
        items = list(parent.items())
        rng.shuffle(items)
        shuffled = dict(items)
        want = outcome(reference_labels, "t0", shuffled)
        assert outcome(lambda: ontology_data(Ontology("t0", shuffled))[2:]) == want, shuffled
        reached.add(want[0] if want[0] == "ok" else want[1].split(" '")[0])
    assert reached == {"ok", "root", "unknown parent", "second root", "cycle:"}


def test_a_20000_deep_chain_answers_at_both_ends():
    names = [f"t{i}" for i in range(20_000)]
    parent = {name: names[i - 1] if i else None for i, name in enumerate(names)}
    top, bottom = names[0], names[-1]
    for ont in (load_ontology(tree_source(parent)), Ontology(top, dict(reversed(parent.items())))):
        assert ont.subsumes(top, bottom) and not ont.subsumes(bottom, top)
        assert ont.compare(top, bottom) is V.FIRST_SUBSUMES_SECOND
        assert ont.compare(bottom, top) is V.SECOND_SUBSUMES_FIRST
        assert (ont.depth(top), ont.depth(bottom)) == (0, 19_999)


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
    ids=str,  # each id names its member: SubsumptionVerdict.EQUAL and so on
)
def test_compare_examples(ont, first, second, verdict):
    assert ont.compare(first, second) is verdict


def test_a_verdict_is_one_of_four_members_that_keep_their_identity():
    members = [V.EQUAL, V.FIRST_SUBSUMES_SECOND, V.SECOND_SUBSUMES_FIRST, V.INCOMPARABLE]
    assert [m.name for m in members] == ["EQUAL", "FIRST_SUBSUMES_SECOND", "SECOND_SUBSUMES_FIRST", "INCOMPARABLE"]
    assert repr(V.EQUAL) == "SubsumptionVerdict.EQUAL"
    assert len(set(members)) == 4
    assert V.EQUAL == V.EQUAL and V.EQUAL != V.INCOMPARABLE
    for args in ((), ("EQUAL",), (1,)):
        with pytest.raises(TypeError, match="has only its four members"):
            V(*args)
    for member in members:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member
        assert copy.copy(member) is member and copy.deepcopy(member) is member
        with pytest.raises(AttributeError):
            member.name = "EQUAL"
        with pytest.raises(AttributeError):
            del member.name
    # by identity, through object's own comparison and hash
    assert V.__eq__ is object.__eq__ and V.__hash__ is object.__hash__


# ----------------------------------------------------------------------
# properties on random trees, checked against the ancestor-chain oracle
# ----------------------------------------------------------------------


def _pairs(rng, nodes, cap=300):
    if len(nodes) * len(nodes) <= cap:
        return [(a, b) for a in nodes for b in nodes]
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(cap)]


# the member compare returns for each answer of oracle_compare
ORACLE_VERDICT = {
    "equal": V.EQUAL,
    "first": V.FIRST_SUBSUMES_SECOND,
    "second": V.SECOND_SUBSUMES_FIRST,
    "incomparable": V.INCOMPARABLE,
}


def test_subsumption_matches_oracle_on_random_trees():
    rng = random.Random(417)
    for _ in range(200):
        parent = random_tree(rng, max_nodes=50)
        loaded = load_ontology(tree_source(parent))
        # the same tree built through the API, every child before its parent
        reversed_ont = Ontology(root="t0", parent=dict(reversed(parent.items())))
        nodes = list(parent)
        for a, b in _pairs(rng, nodes):
            want = oracle_compare(parent, a, b)
            for ont in (loaded, reversed_ont):
                assert ont.subsumes(a, b) == oracle_subsumes(parent, a, b)
                assert ont.compare(a, b) is ORACLE_VERDICT[want]


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
