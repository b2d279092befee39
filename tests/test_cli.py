import json

import pytest

from ontologik.cli import main
from ontologik.fixtures import FIXTURES_ENV, lexicon_path, ontology_path


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def records(out):
    return [json.loads(line) for line in out.splitlines()]


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
