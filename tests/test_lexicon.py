import pickle
import random
import re

import pytest

from ontologik import (
    Lexicon,
    LexiconError,
    PredicateSignature,
    SalientRelation,
    load_lexicon,
    load_ontology,
)

from ontologik.fixtures import lexicon_path, ontology_path

from oracles import (
    NEW_LEXICON_REJECTION,
    corrupt,
    lexicon_data,
    misnamed,
    oracle_candidates,
    outcome,
    pattern_load_lexicon,
    random_relations,
    random_tree,
    reference_declared_name,
    reference_load_lexicon,
    resource_vocabulary,
    splice,
    tree_source,
)


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


def test_an_api_built_lexicon_rejects_a_predicate_and_a_relation_of_the_same_name(lex):
    # as load_lexicon does: were the predicate to win, analysis would bridge through
    # EATING and emit EATING(x, x2), an atom its own lexicon rejects
    signatures = dict(lex.signatures, EATING=PredicateSignature("EATING", ("person",)))
    with pytest.raises(LexiconError, match="^relation 'EATING' clashes with a predicate$") as caught:
        Lexicon(signatures, lex.relations, lex.names)
    assert caught.value.line is None
    with pytest.raises(LexiconError, match="^relation 'eats' clashes with a predicate$"):
        Lexicon(relations=[SalientRelation("eats", "person", "food", 0)],
                signatures={"eats": PredicateSignature("eats", ("person",))})


def test_an_api_built_lexicon_rejects_two_relations_of_one_name(lex):
    # as load_lexicon does: were the first to win, analysis could bridge through
    # the second and emit EATING(x, x2) over a car, an atom its own lexicon rejects
    relations = (*lex.relations, SalientRelation("EATING", "animal", "car", 1))
    with pytest.raises(LexiconError, match="^duplicate relation 'EATING'$") as caught:
        Lexicon(lex.signatures, relations, lex.names)
    assert caught.value.line is None


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
        ("rel omelet(person, food)", "relation 'omelet' clashes with an ontology type"),
        ("pred and(entity)", "predicate 'and' is a reserved word of the LF syntax"),
        ("rel and(person, food)", "relation 'and' is a reserved word of the LF syntax"),
        # names the LF tokenizer cannot read, or reads as variables
        ("pred loudé(person)", "predicate 'loudé' must be an ASCII identifier"),
        ("rel EATÏNG(person, food)", "relation 'EATÏNG' must be an ASCII identifier"),
        ("name julie :: person", "name 'julie' must be a capitalized ASCII identifier"),
        ("name _Julie :: person", "name '_Julie' must be a capitalized ASCII identifier"),
        ("name Julié :: person", "name 'Julié' must be a capitalized ASCII identifier"),
    ],
)
def test_load_rejections(ont, line, fragment):
    with pytest.raises(LexiconError, match=fragment) as err:
        load_lexicon(f"# a comment\n{line}", ont)
    assert err.value.line == 2


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


def _loaded(source: str, ont):
    return lexicon_data(load_lexicon(source, ont))


def _check_against_reference(source: str, ont) -> str:
    """Load ``source`` with the loader and the frozen reference, check that
    they agree, and return the first words of the outcome's message.

    They may differ only where the loader rejects a predicate or relation
    that the reference takes but no LF text can use. Then every earlier line
    loads as the reference loads it, and the reference takes or rejects this
    very line.
    """
    types = set(ont.parent)
    want = outcome(reference_load_lexicon, source, types)
    got = outcome(_loaded, source, ont)
    if got == want:
        assert want[0] != "ok" or not misnamed(want[1], types), repr(source)
        return want[0] if want[0] == "ok" else want[1].split(": ", 1)[1].split(" '")[0]
    kind, message, line = got
    m = NEW_LEXICON_REJECTION.fullmatch(message)
    assert kind == "LexiconError" and m, (source, got, want)
    name = next(group for group in m.groups() if group is not None)
    lines = source.splitlines(keepends=True)
    before = outcome(reference_load_lexicon, "".join(lines[: line - 1]), types)
    assert before[0] == "ok" and not misnamed(before[1], types)
    assert outcome(_loaded, "".join(lines[: line - 1]), ont) == before
    upto = outcome(reference_load_lexicon, "".join(lines[:line]), types)
    if upto[0] == "ok":
        assert misnamed(upto[1], types) == [name]
    else:
        assert upto[2] == line and reference_declared_name(lines[line - 1]) == name
    return message.split(": ", 1)[1].replace(f"'{name}'", "X")


def test_load_matches_the_frozen_reference_on_corrupted_fixtures(ont):
    text = lexicon_path().read_text()
    vocab = resource_vocabulary(ontology_path().read_text(), text)
    rng = random.Random(423)
    reached = {_check_against_reference(corrupt(rng, text, vocab), ont) for _ in range(10_000)}
    assert reached >= {
        "ok", "malformed predicate declaration", "malformed relation declaration",
        "malformed name declaration", "unrecognized declaration", "unknown type",
        "duplicate predicate", "duplicate relation", "duplicate name", "predicate",
        "relation X clashes with an ontology type", "name X must be a capitalized ASCII identifier",
    }


def test_renamed_declarations_match_the_frozen_reference(ont, lex):
    # random edits rarely give a predicate, relation or name a name in use or one LF cannot read
    lines = lexicon_path().read_text().splitlines()
    renames = [
        "and", "And", "loudé", "Julié", "julie", "_J", *ont.parent, *lex.signatures, *lex.names,
        *(rel.name for rel in lex.relations),
    ]
    reached = set()
    for i, line in enumerate(lines):
        declared = reference_declared_name(line)
        for name in renames if declared else ():
            renamed = line.replace(f" {declared}", f" {name}", 1)
            # the renamed line, then the original again at the end
            source = "\n".join([*lines[:i], renamed, *lines[i + 1 :], line])
            reached.add(_check_against_reference(source, ont))
    assert reached == {
        "ok", "predicate", "duplicate predicate", "duplicate relation", "duplicate name", "relation",
        "relation X clashes with an ontology type",
        "predicate X is a reserved word of the LF syntax", "relation X is a reserved word of the LF syntax",
        "predicate X must be an ASCII identifier", "relation X must be an ASCII identifier",
        "name X must be a capitalized ASCII identifier",
    }


def test_load_matches_the_pattern_loader_on_spliced_declarations(ont):
    # Blanks, marks and non-ASCII letters and digits spliced into the
    # declarations, where a pattern's \s and \w and str methods may part.
    text = lexicon_path().read_text()
    rng = random.Random(2202)
    reached = set()
    for _ in range(20_000):
        source = splice(rng, text)
        want = outcome(lambda: lexicon_data(pattern_load_lexicon(source, ont)))
        assert outcome(_loaded, source, ont) == want, repr(source)
        reached.add(want[0] if want[0] == "ok" else re.sub("'[^']*'", "X", want[1].split(": ", 1)[1]))
    assert reached == {
        "ok", "unrecognized declaration X", "malformed predicate declaration X",
        "malformed relation declaration X", "malformed name declaration X", "unknown type X",
        "predicate X needs at least one argument type", "predicate X must be an ASCII identifier",
        "relation X must be an ASCII identifier", "name X must be a capitalized ASCII identifier",
    }


def test_load_reports_line_numbers(ont):
    with pytest.raises(LexiconError) as err:
        load_lexicon("pred happy(person)\npred broken(", ont)
    assert err.value.line == 2


def test_load_against_custom_ontology():
    ont = load_ontology("type thing\ntype tool isa thing")
    lex = load_lexicon("pred sharp(tool)\nname Ax :: tool", ont)
    assert lex.signatures["sharp"].arg_types == ("tool",)
    assert lex.names["Ax"].declared_type == "tool"
