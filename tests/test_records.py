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


@pytest.mark.parametrize("cls, names, values, required", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_constructor_names_its_class_in_errors(cls, names, values, required):
    # a generated __init__ as a hand-written one: named after the class, in its module
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    if required:
        missing = f"^{cls.__name__}.__init__\\(\\) missing 1 required positional argument: '{names[required - 1]}'$"
        with pytest.raises(TypeError, match=missing):
            cls(*values[: required - 1])
    with pytest.raises(TypeError, match=f"^{cls.__name__}.__init__\\(\\) got an unexpected keyword argument 'extra'$"):
        cls(*values, extra=None)


def test_every_record_of_the_package_is_under_contract():
    from ontologik._value import Value

    exec("from ontologik import *", {})  # loads every module of the package
    found, stack = set(), [Value]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.split(".")[0] == "ontologik":
                found.add(sub)
    assert found == {r[0] for r in RECORDS}


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
# starts: what the package imports is then all that is loaded. The star
# import loads every module of the package.
# The resource text comes on stdin and json is imported last, because json
# imports re.
HYGIENE_CHILD = """\
import sys
heavy = ("dataclasses", "inspect", "ast", "typing", "importlib.resources", "tempfile", "shutil")
ontology, lexicon = sys.stdin.read().split("\\0")
import ontologik
after_package = [m for m in heavy if m in sys.modules]
ontologik.load_lexicon(lexicon, ontologik.load_ontology(ontology))
after_load = [m for m in (*heavy, "re", "enum", "functools", "collections") if m in sys.modules]
ontologik.parse_lf("(E x :: person)(loud(x))")
try:
    ontologik.parse_lf("(E x)(loud(x)) @")
except ontologik.LFSyntaxError:
    pass
after_parse = [m for m in (*heavy, "re") if m in sys.modules]
import ontologik.cli
after_cli = [m for m in (*heavy, "pathlib") if m in sys.modules]
from ontologik import *
modules = sorted(m for m in sys.modules if m.split(".")[0] == "ontologik")
import json
print(json.dumps([after_package, after_load, after_parse, after_cli, [m for m in heavy if m in sys.modules], modules]))
"""


def test_importing_the_package_loads_no_dataclasses_or_typing():
    # nor does loading the shipped resources load re, enum, functools or
    # collections, nor parsing LF text, good or bad, load re; the command
    # line loads re, through argparse, and no pathlib
    from ontologik.fixtures import lexicon_path, ontology_path

    resources = ontology_path().read_text() + "\0" + lexicon_path().read_text()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", HYGIENE_CHILD],
        input=resources, capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    after_package, after_load, after_parse, after_cli, after_star, modules = json.loads(done.stdout)
    assert after_package == []
    assert after_load == []
    assert after_parse == []
    assert after_cli == []
    assert after_star == []
    assert {"ontologik." + module for module in SURFACE} <= set(modules)


FIXTURES_CHILD = """\
import sys
from ontologik.fixtures import load_reference
ont, lex = load_reference()
print(len(ont), len(lex.signatures), *[m for m in ("pathlib", "re", "enum", "collections") if m in sys.modules])
"""


def test_loading_the_reference_fixtures_loads_no_pathlib_or_re():
    # load_reference finds the shipped files by os.path; only the path
    # functions import pathlib, which imports re
    from ontologik.fixtures import FIXTURES_ENV, load_reference

    env = {key: value for key, value in os.environ.items() if key != FIXTURES_ENV}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-S", "-c", FIXTURES_CHILD], capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    ont, lex = load_reference()
    assert done.stdout.split() == [str(len(ont)), str(len(lex.signatures))]


# ----------------------------------------------------------------------
# the import surface: each public name loads its module on first use
# ----------------------------------------------------------------------

# Every public name of the package, under the module that defines it.
SURFACE = {
    "aor": ["Accepted", "AORVerdict", "TypeFailure", "Violation", "check_order"],
    "confirm": [
        "ConfirmationVerdict", "EquivalenceResult", "Observation",
        "equivalence_check", "evaluate", "parse_observation",
    ],
    "errors": [
        "CanonicalizationError", "HypothesisShapeError", "LexiconError", "LFSyntaxError",
        "NestingError", "OntologikError", "OntologyError", "SentenceError",
        "TypeCheckError", "UnknownTypeError",
    ],
    "lexicon": ["Lexicon", "NameDecl", "PredicateSignature", "SalientRelation", "load_lexicon"],
    "logform": [
        "And", "Atom", "CanonicalForm", "Form", "Implies", "Not", "Quant", "QuantKind",
        "alpha_equal", "atoms", "canonicalize", "conj", "parse_lf", "pretty",
    ],
    "nlparser": ["parse_sentence"],
    "ontology": ["Ontology", "SubsumptionVerdict", "load_ontology"],
    "unifier": [
        "AnalyzedForm", "Coerced", "DerivationTrace", "Failed", "TraceStep", "Unified",
        "UnificationOutcome", "analyze", "fold_expectations", "unify_types",
    ],
}
PUBLIC = sorted(name for names in SURFACE.values() for name in names)

# The resource text comes on stdin, so nothing but the package is imported
# before the loaded modules are listed.
SURFACE_CHILD = """\
import sys
ontology, lexicon = sys.stdin.read().split("\\0")
import ontologik
ontologik.load_lexicon(lexicon, ontologik.load_ontology(ontology))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "ontologik")
surface = {surface!r}
differ = [
    name for module, names in surface.items() for name in names
    if getattr(ontologik, name) is not getattr(sys.modules["ontologik." + module], name)
]
star = {{}}
exec("from ontologik import *", star)
try:
    ontologik.no_such_name
except AttributeError as err:
    unknown = str(err)
import json
print(json.dumps({{
    "loaded": loaded, "differ": differ, "star": sorted(set(star) - {{"__builtins__"}}),
    "dir": dir(ontologik), "all": sorted(ontologik.__all__), "unknown": unknown,
    "same": ontologik.analyze is ontologik.unifier.analyze,
}}))
"""


def test_the_package_loads_each_module_on_first_use():
    from ontologik.fixtures import lexicon_path, ontology_path

    resources = ontology_path().read_text() + "\0" + lexicon_path().read_text()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", SURFACE_CHILD.format(surface=SURFACE)],
        input=resources, capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    seen = json.loads(done.stdout)
    assert seen["loaded"] == [
        "ontologik", "ontologik._value", "ontologik.errors", "ontologik.lexicon", "ontologik.ontology",
    ]
    assert seen["differ"] == [] and seen["same"]
    assert seen["all"] == PUBLIC
    assert seen["star"] == PUBLIC
    assert set(PUBLIC) | set(SURFACE) <= set(seen["dir"])
    assert [name for name in seen["dir"] if name[0] == "_" and name[:2] != "__"] == []
    assert "sys" not in seen["dir"]
    assert seen["unknown"] == "module 'ontologik' has no attribute 'no_such_name'"


# The source tree loaded as a package of another name, with no `ontologik`
# on the path: a module that imported `ontologik` by name would fail here.
RENAMED_CHILD = """\
import importlib.util, sys
root = {root!r}
spec = importlib.util.spec_from_file_location(
    "renamed", root + "/__init__.py", submodule_search_locations=[root]
)
package = sys.modules["renamed"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(package)
from renamed import cli
from renamed.fixtures import load_reference
ont, lex = load_reference()
form = package.parse_sentence("The loud omelet wants another beer", ont, lex)
print(package.pretty(package.analyze(form, ont, lex).form))
print(package.analyze is sys.modules["renamed.unifier"].analyze)
cli.main(["hempel", "--h1", "All ravens are black", "--h2", "All non-black things are non-ravens"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "ontologik"))
"""


def test_the_source_tree_loads_under_another_name():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", RENAMED_CHILD.format(root=str(SRC / "ontologik"))],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "(E o :: person)(E o2 :: omelet)(E b :: beer)(and (EATING(o, o2)) (loud(o)) (want(o, b)))"
    assert lines[1] == "True"
    assert lines[-2] == "equivalent: yes"
    assert lines[-1] == "[]"
