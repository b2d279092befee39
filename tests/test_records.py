"""The record contract: every public record class is an immutable value that
constructs, compares, hashes, prints, matches and pickles like the frozen
dataclass it replaced, and importing the package loads no dataclasses."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ontologik import (
    Accepted,
    AnalyzedForm,
    And,
    Atom,
    CanonicalizationError,
    Coerced,
    DerivationTrace,
    EquivalenceResult,
    Failed,
    Implies,
    Lexicon,
    NameDecl,
    Not,
    Observation,
    Ontology,
    PredicateSignature,
    Quant,
    QuantKind,
    SalientRelation,
    TraceStep,
    TypeFailure,
    Unified,
    Violation,
    pretty,
)

SRC = Path(__file__).resolve().parents[1] / "src"

LOUD = Atom("loud", ("x",))
BLACK = Atom("black", ("x",))
EATING = SalientRelation("EATING", "person", "food", 0)
STEP = TraceStep("unify", "o", "(animal • person)", "person")

# (class, field names in order, an example's field values, how many are required)
RECORDS = [
    (Atom, ("pred", "args"), ("loud", ("x",)), 2),
    (And, ("items",), ((LOUD, BLACK),), 1),
    (Not, ("item",), (LOUD,), 1),
    (Implies, ("antecedent", "consequent"), (LOUD, BLACK), 2),
    (Quant, ("kind", "var", "vtype", "body"), (QuantKind.EXISTS, "x", "omelet", LOUD), 4),
    (PredicateSignature, ("name", "arg_types"), ("loud", ("person",)), 2),
    (SalientRelation, ("name", "domain_type", "range_type", "priority"), ("EATING", "person", "food", 0), 4),
    (NameDecl, ("name", "declared_type"), ("Julie", "person"), 2),
    (Ontology, ("root", "parent"), ("entity", {"entity": None, "person": "entity"}), 2),
    (
        Lexicon,
        ("signatures", "relations", "names"),
        ({"loud": PredicateSignature("loud", ("person",))}, (EATING,), {"Julie": NameDecl("Julie", "person")}),
        0,
    ),
    (Unified, ("result",), ("person",), 1),
    (Coerced, ("result", "relation", "relatum_type"), ("person", EATING, "omelet"), 3),
    (Failed, ("left", "right"), ("car", "beer"), 2),
    (TraceStep, ("op", "subject", "detail", "outcome"), ("unify", "o", "(animal • person)", "person"), 4),
    (DerivationTrace, ("steps",), ([STEP],), 0),
    (AnalyzedForm, ("form", "trace", "missing_text", "text"), (LOUD, DerivationTrace(), [], "loud(x)"), 4),
    (Accepted, ("running_types", "coercions"), (("car", "physical"), ((0, "EATING"),)), 1),
    (Violation, ("at_index", "expected", "running"), (1, "physical", "entity"), 3),
    (TypeFailure, ("at_index",), (0,), 1),
    (Observation, ("object_type", "literals"), ("raven", (("black", True),)), 2),
    (EquivalenceResult, ("equivalent", "canonical_first", "canonical_second"), (True, LOUD, BLACK), 3),
]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, names, values, required", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, values, required):
    record = cls(*values)
    # construction, positional and by keyword; a missing argument is refused
    assert cls(**dict(zip(names, values))) == record
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    # equality reads the fields and the type
    assert record == cls(*values) and not record != cls(*values)
    assert record != values and record != object()
    # equal values hash equal, where the fields hash at all
    if _hashable(tuple(getattr(record, name) for name in names)):
        assert hash(record) == hash(cls(*values))
    # the dataclass repr: the class name, then each field as name=repr
    assert repr(record).startswith(f"{cls.__name__}({names[0]}=")
    # class patterns match positionally, in field order
    assert cls.__match_args__ == names
    match record:
        case cls(first):
            assert first == getattr(record, names[0])
        case _:
            pytest.fail("positional class pattern did not match")
    # no field can be assigned or deleted, and no attribute added
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert record == cls(*values)
    # pickling round-trips
    assert pickle.loads(pickle.dumps(record)) == record


SUMMARY_HASHED = (Ontology, Lexicon)  # their fields are read-only mapping proxies
UNHASHABLE = (DerivationTrace, AnalyzedForm)  # their fields are mutable


@pytest.mark.parametrize(
    "cls, values",
    [(r[0], r[2]) for r in RECORDS if r[0] in SUMMARY_HASHED + UNHASHABLE],
    ids=[r[0].__name__ for r in RECORDS if r[0] in SUMMARY_HASHED + UNHASHABLE],
)
def test_a_record_whose_fields_do_not_hash_hashes_a_summary_or_names_itself(cls, values):
    record = cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match=f"^unhashable type: '{cls.__name__}'$"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values))
        assert {record: "found"}[cls(*values)] == "found"


def test_equality_is_type_aware():
    assert Not(Implies(LOUD, BLACK)) != And((LOUD, BLACK))
    assert Atom("loud", ("x",)) != PredicateSignature("loud", ("x",))
    assert Unified("person") != Failed("person", "person")


def test_repr_keeps_the_dataclass_text():
    assert repr(Atom("loud", ("x",))) == "Atom(pred='loud', args=('x',))"
    assert repr(Coerced("person", EATING, "omelet")) == (
        "Coerced(result='person', relation=SalientRelation(name='EATING', domain_type='person', "
        "range_type='food', priority=0), relatum_type='omelet')"
    )
    assert repr(Ontology("entity", {"entity": None, "person": "entity"})) == (
        "Ontology(root='entity', parent=mappingproxy({'entity': None, 'person': 'entity'}))"
    )
    assert repr(Quant(QuantKind.EXISTS, "x", None, Quant(QuantKind.FORALL, "y", "person", Atom("loud", ("y",))))) == (
        "Quant(kind=<QuantKind.EXISTS: 'E'>, var='x', vtype=None, body=Quant(kind=<QuantKind.FORALL: 'A'>, "
        "var='y', vtype='person', body=Atom(pred='loud', args=('y',))))"
    )


def test_the_repr_of_a_long_prefix_takes_no_frame_per_binder():
    form = Atom("loud", ("x0",))
    for i in range(5000):
        form = Quant(QuantKind.EXISTS, f"x{i}", None, form)
    assert repr(form).startswith("Quant(kind=<QuantKind.EXISTS: 'E'>, var='x4999', vtype=None, body=Quant(")
    # so the error for a kind that is no QuantKind can name the quantifier
    with pytest.raises(CanonicalizationError, match="^not a form: Quant\\(kind='E', var='y'"):
        pretty(Quant("E", "y", None, form))


# Run in a fresh interpreter without site-packages, as the command line
# starts: what the package imports is then all that is loaded.
HYGIENE_CHILD = """\
import json, sys
heavy = ("dataclasses", "inspect", "ast", "typing", "importlib.resources", "tempfile", "shutil")
import ontologik
after_package = [m for m in heavy if m in sys.modules]
import ontologik.cli
print(json.dumps([after_package, [m for m in heavy if m in sys.modules]]))
"""


def test_importing_the_package_loads_no_dataclasses_or_typing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", HYGIENE_CHILD],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    after_package, after_cli = json.loads(done.stdout)
    assert after_package == []
    assert after_cli == []
