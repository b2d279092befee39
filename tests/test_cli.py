import dis
import gc
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ontologik.cli import Reporter, cmd_unify, main
from ontologik.errors import LexiconError, OntologyError
from ontologik.fixtures import FIXTURES_ENV, lexicon_path, load_reference, ontology_path


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def records(out):
    return [json.loads(line) for line in out.splitlines()]


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.with_name("src")
ABSENT = Path(__file__).with_name("absent.ont")
FIELDS = ["command", "status", "canonical", "trace", "glosses", "detail"]


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def test_analyze_sentence_human(capsys):
    code, out, err = run(capsys, "analyze", "The loud omelet wants another beer")
    assert code == 0
    assert "typed form: (E o :: person)(E o2 :: omelet)(E b :: beer)" in out
    assert "(animal • person) -> person" in out
    assert "(omelet • person) -> coerced: person via EATING(person, omelet)" in out
    assert "some loud person eating the omelet" in out
    assert err == ""


def test_analyze_sentence_structured(capsys):
    code, out, _ = run(
        capsys, "--format", "structured", "analyze", "The loud omelet wants another beer"
    )
    assert code == 0
    [record] = records(out)
    assert record["command"] == "analyze"
    assert record["status"] == "ok"
    assert record["canonical"] == (
        "(E o :: person)(E o2 :: omelet)(E b :: beer)"
        "(and (EATING(o, o2)) (loud(o)) (want(o, b)))"
    )
    assert record["glosses"] == ["some loud person eating the omelet"]
    coercion_steps = [s for s in record["trace"] if s["subject"] == "o"]
    assert [s["detail"] for s in coercion_steps] == [
        "(animal • person)",
        "(omelet • person)",
    ]
    assert all(set(s) == {"op", "subject", "detail", "outcome"} for s in record["trace"])


def test_analyze_structured_line_is_pinned_byte_for_byte(capsys):
    # Key order and escaping are part of the contract, which json.loads hides.
    code, out, _ = run(
        capsys, "--format", "structured", "analyze", "The loud omelet wants another beer"
    )
    assert code == 0
    assert out == (
        '{"command": "analyze", "status": "ok", "canonical": "(E o :: person)(E o2 :: omelet)'
        '(E b :: beer)(and (EATING(o, o2)) (loud(o)) (want(o, b)))", "trace": ['
        '{"op": "canonicalize", "subject": null, "detail": "(E o)(E b)(and (omelet(o)) '
        '(beer(b)) (loud(o)) (want(o, b)))", "outcome": "(E o :: omelet)(E b :: beer)'
        '(and (loud(o)) (want(o, b)))"}, '
        '{"op": "unify", "subject": "o", "detail": "(animal \\u2022 person)", "outcome": "person"}, '
        '{"op": "unify", "subject": "o", "detail": "(omelet \\u2022 person)", '
        '"outcome": "coerced: person via EATING(person, omelet)"}, '
        '{"op": "unify", "subject": "b", "detail": "(beer \\u2022 entity)", "outcome": "beer"}], '
        '"glosses": ["some loud person eating the omelet"], "detail": {}}\n'
    )


def test_analyze_accepts_lf_input(capsys):
    code, out, _ = run(capsys, "analyze", "@lf: (E! j :: person)(articulate(j))")
    assert code == 0
    assert "typed form: (E! j :: person)(articulate(j))" in out
    assert "no missing text detected" in out


def test_analyze_type_failure_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "The red beer wants a car")
    assert code == 2
    assert "cannot satisfy expectation animal" in err


def test_analyze_type_failure_structured(capsys):
    code, out, _ = run(
        capsys, "--format", "structured", "analyze", "The red beer wants a car"
    )
    assert code == 2
    [record] = records(out)
    assert record["status"] == "type_error"
    assert "cannot satisfy expectation animal" in record["detail"]["message"]


@pytest.mark.parametrize(
    "text",
    ["Goats sing loudly", "@lf: (E x)(loud(y))", "@lf: (E x)(person(x))"],
)
def test_analyze_parse_failures_exit_3(capsys, text):
    code, _, err = run(capsys, "analyze", text)
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("module", ["ontologik", "ontologik.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != FIXTURES_ENV}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-m", module, "analyze", "@lf: (E x)(loud(y))"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: at position 11: unbound variable 'y'\n"


def test_analyze_membership_under_a_restricted_universal_exits_3(capsys):
    code, out, err = run(
        capsys, "analyze", "@lf: (E x)(A y)(raven(y) -> (and (omelet(x)) (black(y))))"
    )
    assert code == 3
    assert out == ""
    assert err == (
        "error: type name 'omelet' used as a predicate where no rewrite can lift it: omelet(x)\n"
    )


# ----------------------------------------------------------------------
# parse
# ----------------------------------------------------------------------


def test_parse_shows_the_untyped_form(capsys):
    code, out, _ = run(capsys, "parse", "The loud omelet wants another beer")
    assert code == 0
    assert out.strip() == "(E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))"


def test_parse_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "parse", "Julie is articulate")
    assert code == 0
    [record] = records(out)
    assert record["canonical"] == "(E! Julie)(articulate(Julie))"


def test_parse_rejects_unmatched_sentences(capsys):
    code, _, err = run(capsys, "parse", "Sing me a song")
    assert code == 3
    assert "no pattern matches" in err


# ----------------------------------------------------------------------
# aor
# ----------------------------------------------------------------------


def test_aor_accepted(capsys):
    code, out, _ = run(capsys, "aor", "beautiful", "red", "--noun", "car")
    assert code == 0
    assert out.strip() == "Accepted: car -> physical -> entity"


def test_aor_violation(capsys):
    code, out, _ = run(capsys, "aor", "red", "beautiful", "--noun", "car")
    assert code == 2
    assert out.strip() == "Violation at 'red': expected physical, running entity"


def test_aor_trivial_order(capsys):
    code, out, _ = run(capsys, "aor", "--noun", "car")
    assert code == 0
    assert out.strip() == "Accepted: car"


def test_aor_type_failure(capsys):
    code, out, _ = run(capsys, "aor", "loud", "--noun", "car")
    assert code == 2
    assert out.strip() == "Type failure at 'loud'"


def test_aor_coercion_notes_the_bridge(capsys):
    code, out, _ = run(capsys, "aor", "loud", "--noun", "omelet")
    assert code == 0
    assert "Accepted: omelet -> person" in out
    assert "coerced at 'loud' via EATING" in out


def test_aor_structured(capsys):
    code, out, _ = run(
        capsys, "--format", "structured", "aor", "red", "beautiful", "--noun", "car"
    )
    assert code == 2
    [record] = records(out)
    assert record["status"] == "violation"
    assert record["detail"] == {
        "verdict": "violation",
        "adjective": "red",
        "at_index": 0,
        "expected": "physical",
        "running": "entity",
    }


def test_aor_unknown_adjective_exits_3(capsys):
    code, _, err = run(capsys, "aor", "zumbly", "--noun", "car")
    assert code == 3
    assert "unknown predicate" in err


# ----------------------------------------------------------------------
# unify
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "first, second, expected, code",
    [
        ("beer", "entity", "Unified beer", 0),
        ("omelet", "person", "Coerced person via EATING(person, omelet)", 0),
        ("car", "person", "Failed", 2),
    ],
)
def test_unify_outcomes(capsys, first, second, expected, code):
    got_code, out, _ = run(capsys, "unify", first, second)
    assert got_code == code
    assert out.strip() == expected


def test_unify_unknown_type_exits_3(capsys):
    code, _, err = run(capsys, "unify", "beer", "unicorn")
    assert code == 3
    assert "unknown type name 'unicorn'" in err


def test_unify_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "unify", "omelet", "person")
    assert code == 0
    [record] = records(out)
    assert record["detail"] == {
        "outcome": "coerced",
        "result": "person",
        "relation": "EATING",
        "relatum": "omelet",
    }


# ----------------------------------------------------------------------
# hempel
# ----------------------------------------------------------------------


def test_hempel_equivalence_and_sweep(capsys):
    code, out, _ = run(
        capsys,
        "hempel",
        "--h1", "All ravens are black",
        "--h2", "All non-black things are non-ravens",
        "--observe", "ball: red",
        "--observe", "raven: black",
        "--observe", "raven: black=false",
    )
    assert code == 0
    assert "h1 canonical: (A x :: raven)(black(x))" in out
    assert "h2 canonical: (A x :: raven)(black(x))" in out
    assert "equivalent: yes" in out
    assert "ball: red: h1 Neutral, h2 Neutral" in out
    assert "raven: black: h1 Confirms, h2 Confirms" in out
    assert "raven: black=false: h1 Disconfirms, h2 Disconfirms" in out


def test_hempel_accepts_lf_hypotheses(capsys):
    code, out, _ = run(
        capsys,
        "hempel",
        "--h1", "@lf: (A x)(raven(x) -> black(x))",
        "--h2", "All ravens are black",
    )
    assert code == 0
    assert "equivalent: yes" in out


def test_hempel_inequivalent_exits_2(capsys):
    code, out, _ = run(
        capsys,
        "hempel",
        "--h1", "All ravens are black",
        "--h2", "All people are beautiful",
        "--observe", "raven: black",
    )
    assert code == 2
    assert "equivalent: no" in out
    assert "[disagree]" in out


def test_hempel_alpha_variants_are_equivalent_whatever_their_conjunct_order(capsys):
    code, out, _ = run(
        capsys,
        "hempel",
        "--h1", "@lf: (A x)(A y)(and (want(x, y)) (want(y, y)))",
        "--h2", "@lf: (A b)(A a)(and (want(b, a)) (want(a, a)))",
    )
    assert code == 0
    assert "h1 canonical: (A x)(A y)(and (want(x, y)) (want(y, y)))" in out
    assert "h2 canonical: (A b)(A a)(and (want(a, a)) (want(b, a)))" in out
    assert "equivalent: yes" in out


def test_hempel_structured(capsys):
    code, out, _ = run(
        capsys,
        "--format", "structured",
        "hempel",
        "--h1", "All ravens are black",
        "--h2", "All non-black things are non-ravens",
        "--observe", "ball: red",
    )
    assert code == 0
    first, observation = records(out)
    assert first["command"] == "hempel"
    assert first["detail"]["equivalent"] is True
    assert observation["command"] == "hempel.observe"
    assert observation["detail"] == {
        "observation": "ball: red",
        "h1": "Neutral",
        "h2": "Neutral",
        "agree": True,
    }


def test_hempel_malformed_observation_exits_3(capsys):
    code, _, err = run(
        capsys,
        "hempel",
        "--h1", "All ravens are black",
        "--h2", "All ravens are black",
        "--observe", "not an observation",
    )
    assert code == 3
    assert "malformed observation" in err


# ----------------------------------------------------------------------
# usage errors
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, complaint",
    [
        (["frobnicate", "x"], "invalid choice: 'frobnicate'"),
        (["analyze"], "the following arguments are required: text"),
        (["unify", "beer"], "the following arguments are required: second"),
        (["aor", "loud"], "the following arguments are required: --noun"),
        ([], "the following arguments are required: command"),
    ],
)
@pytest.mark.parametrize("fmt", [[], ["--format", "structured"]])
def test_a_usage_error_exits_2_from_argparse_with_no_record(capsys, fmt, argv, complaint):
    # Pinned as it stands: argparse exits 2, the code README gives to a
    # semantic failure, and prints usage to stderr, but no record to stdout.
    with pytest.raises(SystemExit) as done:
        main(fmt + argv)
    out, err = capsys.readouterr()
    assert done.value.code == 2
    assert out == ""
    assert err.startswith("usage: ontologik")
    assert complaint in err


# ----------------------------------------------------------------------
# resource wiring
# ----------------------------------------------------------------------


def test_flags_may_follow_the_subcommand(capsys):
    code, out, _ = run(capsys, "unify", "beer", "entity", "--format", "structured")
    assert code == 0
    assert records(out)[0]["detail"]["result"] == "beer"


def test_explicit_resource_paths(capsys, tmp_path):
    ont_file = tmp_path / "tiny.ont"
    lex_file = tmp_path / "tiny.lex"
    ont_file.write_text("type thing\ntype gadget isa thing\n")
    lex_file.write_text("pred shiny(gadget)\n")
    code, out, _ = run(
        capsys,
        "--ontology", str(ont_file),
        "--lexicon", str(lex_file),
        "unify", "gadget", "thing",
    )
    assert code == 0
    assert out.strip() == "Unified gadget"


def test_fixture_directory_env_override(capsys, tmp_path, monkeypatch):
    (tmp_path / "reference.ont").write_text("type thing\ntype widget isa thing\n")
    (tmp_path / "reference.lex").write_text("pred fancy(widget)\n")
    monkeypatch.setenv(FIXTURES_ENV, str(tmp_path))
    assert ontology_path() == tmp_path / "reference.ont"
    assert lexicon_path() == tmp_path / "reference.lex"
    ont, lex = load_reference()
    assert ont.root == "thing" and list(lex.signatures) == ["fancy"]
    code, out, _ = run(capsys, "unify", "widget", "thing")
    assert code == 0
    assert out.strip() == "Unified widget"


def test_missing_resource_file_exits_3(capsys, tmp_path):
    code, _, err = run(
        capsys, "--ontology", str(tmp_path / "absent.ont"), "unify", "beer", "entity"
    )
    assert code == 3
    assert err.startswith("error:")


def test_bad_ontology_file_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.ont"
    bad.write_text("type entity\ntype entity isa entity\n")
    code, _, err = run(capsys, "--ontology", str(bad), "unify", "beer", "entity")
    assert code == 3
    assert "cycle" in err


def test_load_error_is_a_record_in_structured_mode(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "--format", "structured",
        "--ontology", str(tmp_path / "absent.ont"),
        "unify", "beer", "entity",
    )
    assert code == 3
    [record] = records(out)
    assert record["status"] == "load_error"


def test_non_utf8_resource_file_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.ont"
    bad.write_bytes(b"type entity\n\xff\n")
    code, out, err = run(capsys, "--ontology", str(bad), "unify", "beer", "entity")
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert err.count("\n") == 1
    code, out, _ = run(
        capsys, "--format", "structured", "--ontology", str(bad), "unify", "beer", "entity"
    )
    assert code == 3
    [record] = records(out)
    assert record["status"] == "load_error"
    assert record["detail"]["error"] == "OntologyError"
    assert str(bad) in record["detail"]["message"]


@pytest.mark.parametrize("name, error", [("reference.ont", OntologyError), ("reference.lex", LexiconError)])
def test_load_reference_names_a_non_utf8_resource_file_as_the_cli_does(capsys, tmp_path, monkeypatch, name, error):
    for shipped in (ontology_path(), lexicon_path()):
        (tmp_path / shipped.name).write_bytes(shipped.read_bytes())
    bad = tmp_path / name
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    monkeypatch.setenv(FIXTURES_ENV, str(tmp_path))
    with pytest.raises(error) as caught:
        load_reference()
    assert type(caught.value) is error
    assert caught.value.line is None
    assert str(caught.value).startswith(f"{bad}: not UTF-8 text")
    code, _, err = run(capsys, "unify", "beer", "entity")
    assert code == 3
    assert err == f"error: {caught.value}\n"


@pytest.mark.parametrize("directory, error", [(False, FileNotFoundError), (True, IsADirectoryError)])
def test_load_reference_raises_the_os_error_of_an_unreadable_resource_file(capsys, tmp_path, monkeypatch, directory, error):
    # an empty fixture directory, or one whose reference.ont is a directory
    if directory:
        (tmp_path / "reference.ont").mkdir()
    monkeypatch.setenv(FIXTURES_ENV, str(tmp_path))
    with pytest.raises(error):
        load_reference()
    code, out, _ = run(capsys, "--format", "structured", "unify", "beer", "entity")
    assert code == 3
    [record] = records(out)
    assert record["status"] == "load_error"
    assert record["detail"]["error"] == error.__name__


# ----------------------------------------------------------------------
# deep input
# ----------------------------------------------------------------------


def test_a_1000_binder_prefix_analyzes(capsys):
    binders = "".join(f"(E x{i} :: person)" for i in range(1000))
    atoms = " ".join(f"(loud(x{i}))" for i in range(1000))
    code, out, err = run(capsys, "analyze", f"@lf: {binders}(and {atoms})")
    assert code == 0
    assert err == ""
    assert out.startswith(f"typed form: {binders}(and (loud(x0)) (loud(x1)) ")


def test_deep_negation_exits_3_with_one_error_line(capsys):
    text = "@lf: " + "(! " * 1000 + "loud(Julie)" + ")" * 1000
    code, out, err = run(capsys, "analyze", text)
    assert code == 3
    assert out == ""
    assert err == "error: input nested too deeply\n"
    code, out, _ = run(capsys, "--format", "structured", "analyze", text)
    assert code == 3
    [record] = records(out)
    assert record["status"] == "parse_error"
    assert record["detail"] == {"message": "input nested too deeply", "error": "NestingError"}


# ----------------------------------------------------------------------
# typed error records
# ----------------------------------------------------------------------


def test_unknown_type_record_names_the_type(capsys):
    code, out, _ = run(capsys, "--format", "structured", "unify", "beer", "unicorn")
    assert code == 3
    [record] = records(out)
    assert record["detail"] == {
        "message": "unknown type name 'unicorn'",
        "error": "UnknownTypeError",
        "name": "unicorn",
    }


def test_a_rejected_command_leaves_no_cycle_for_the_collector(ont, lex, capsys):
    # The error record must not keep the exception, whose traceback holds
    # the frame that caught it.
    gc.collect()
    gc.disable()
    try:
        assert cmd_unify(ont, lex, Reporter("human"), "unicorn", "person") == 3
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().err == "error: unknown type name 'unicorn'\n"


def test_type_error_record_carries_subject_declared_and_expectation(capsys):
    code, out, _ = run(capsys, "--format", "structured", "analyze", "The red beer wants a car")
    assert code == 2
    [record] = records(out)
    assert record["detail"] == {
        "message": "'b' of type beer cannot satisfy expectation animal",
        "error": "TypeCheckError",
        "subject": "b",
        "declared": "beer",
        "expectation": "animal",
    }


def test_syntax_error_record_carries_the_position(capsys):
    code, out, _ = run(capsys, "--format", "structured", "analyze", "@lf: (E x)(loud(y))")
    assert code == 3
    [record] = records(out)
    assert record["detail"]["error"] == "LFSyntaxError"
    assert record["detail"]["position"] == 11
    code, out, err = run(capsys, "analyze", "@lf: (E x)(loud(y))")
    assert (code, out, err) == (3, "", "error: at position 11: unbound variable 'y'\n")


# ----------------------------------------------------------------------
# the contract: README examples and format invariance
# ----------------------------------------------------------------------


def readme_blocks(text):
    return re.findall(r"```\n(.*?)```", text, re.S)


def test_readme_transcript_is_what_analyze_prints(capsys):
    [block] = [b for b in readme_blocks(README.read_text()) if b.startswith("$ ontologik analyze")]
    command, expected = block.split("\n", 1)
    code, out, err = run(capsys, *shlex.split(command)[2:])
    assert (code, out, err) == (0, expected, "")


def test_readme_command_line_examples_exit_0(capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = readme_blocks(section)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 6
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "ontologik"
        assert run(capsys, *argv[1:])[0] == 0, command


HEMPEL_APART = ["hempel", "--h1", "All ravens are black", "--h2", "All people are beautiful"]


@pytest.mark.parametrize(
    "status, argv",
    [
        ("ok", ["analyze", "The loud omelet wants another beer"]),
        ("ok", ["parse", "Julie is articulate"]),
        ("ok", ["aor", "loud", "--noun", "omelet"]),
        ("ok", ["unify", "omelet", "person"]),
        ("ok", ["hempel", "--h1", "All ravens are black", "--h2", "All ravens are black"]),
        ("type_error", ["analyze", "The red beer wants a car"]),
        ("parse_error", ["analyze", "Goats sing loudly"]),
        ("load_error", ["--ontology", str(ABSENT), "unify", "beer", "entity"]),
        ("violation", ["aor", "red", "beautiful", "--noun", "car"]),
        ("type_failure", ["aor", "loud", "--noun", "car"]),
        ("failed", ["unify", "car", "person"]),
        ("not_equivalent", HEMPEL_APART),
        ("disagree", HEMPEL_APART + ["--observe", "raven: black"]),
    ],
)
def test_both_formats_exit_alike(capsys, status, argv):
    code, _, _ = run(capsys, *argv)
    structured_code, out, _ = run(capsys, "--format", "structured", *argv)
    assert structured_code == code
    got = records(out)
    assert status in [record["status"] for record in got]
    assert all(list(record) == FIELDS for record in got)


# ----------------------------------------------------------------------
# what each subcommand loads
# ----------------------------------------------------------------------

# One call in a fresh interpreter without site-packages, as the command
# line starts; the last line lists the package modules and json loaded.
LOADS_CHILD = """\
import sys
from ontologik import cli
cli.main(sys.argv[1:])
print(*sorted(m.split(".")[-1] for m in sys.modules if m.startswith("ontologik.") or m == "json"))
"""


def loaded_by(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ONTOLOGIK_FIXTURES", None)
    done = subprocess.run(
        [sys.executable, "-S", "-c", LOADS_CHILD, *argv],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (["aor", "loud", "--noun", "omelet"], {"aor"}, {"logform", "forms", "unifier", "nlparser", "confirm"}),
        (["unify", "person", "omelet"], {"unifier", "logform"}, {"aor", "confirm", "nlparser"}),
        (["analyze", "@lf: (E x :: omelet)(loud(x))"], {"unifier"}, {"nlparser", "aor", "confirm"}),
        (["parse", "@lf: (E x)(loud(x))"], {"logform"}, {"unifier", "nlparser", "aor", "confirm"}),
        (["analyze", "Julie is an articulate person"], {"unifier", "nlparser"}, {"aor", "confirm"}),
        (["hempel", "--h1", "@lf: (A x :: raven)(black(x))", "--h2", "@lf: (A x :: raven)(black(x))"],
         {"confirm"}, {"unifier", "nlparser", "aor"}),
    ],
    ids=["aor", "unify", "analyze-lf", "parse-lf", "analyze-sentence", "hempel-lf"],
)
def test_a_subcommand_loads_only_the_modules_it_uses(argv, loads, skips):
    modules = loaded_by(*argv)
    assert {"cli", "errors", "fixtures", "lexicon", "ontology"} | loads <= modules
    assert not modules & skips
    assert "json" not in modules  # human output


def test_only_structured_output_loads_json():
    assert "json" in loaded_by("unify", "person", "omelet", "--format", "structured")
    assert "json" not in loaded_by("unify", "unicorn", "omelet")  # an error record, printed as text


def test_no_subcommand_runs_an_import_statement():
    # the modules a subcommand uses load once, through the package namespace
    from types import CodeType

    from ontologik import cli

    def codes(code):
        yield code
        for const in code.co_consts:
            if isinstance(const, CodeType):
                yield from codes(const)

    callers = [f for name, f in vars(cli).items() if name.startswith("cmd_")]
    callers += [cli._read_form, cli._attempt, cli.Reporter.emit, cli._render]
    for caller in callers:
        for code in codes(caller.__code__):
            assert "IMPORT_NAME" not in {i.opname for i in dis.get_instructions(code)}, caller.__name__
