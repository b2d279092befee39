"""Hand-written expected results on the shipped reference fixtures.

Each case is one ``ontologik`` argument vector with the exit code, stdout
and stderr the human-format CLI must produce. The README's examples appear
verbatim. The ``reference_mix`` workload runs the cases in-process through
the CLI's ``cmd_*`` functions; the traced runs also run some as
``ontologik`` subprocesses. Either way the output is compared with the text below, never
with an earlier run.
"""
from __future__ import annotations

from gen import REF_PARENT, analysis_report, ref_unify

README_OMELET = """\
typed form: (E o :: person)(E o2 :: omelet)(E b :: beer)(and (EATING(o, o2)) (loud(o)) (want(o, b)))
derivation:
  (E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b))) -> (E o :: omelet)(E b :: beer)(and (loud(o)) (want(o, b)))
  [o] (animal • person) -> person
  [o] (omelet • person) -> coerced: person via EATING(person, omelet)
  [b] (beer • entity) -> beer
missing text:
  some loud person eating the omelet
"""

RAVENS = """\
typed form: (A x :: raven)(black(x))
derivation:
  {source} -> (A x :: raven)(black(x))
  [x] (raven • physical) -> raven
missing text:
  no missing text detected
"""

# (argv, exit code, stdout, stderr)
CASES: list[tuple[tuple[str, ...], int, str, str]] = [
    # -- analyze: the four sentence shapes and @lf: forms -------------------
    (("analyze", "The loud omelet wants another beer"), 0, README_OMELET, ""),
    (("analyze", "The loud omelet wants another car"), 0, analysis_report(
        "(E o :: person)(E o2 :: omelet)(E c :: car)(and (EATING(o, o2)) (loud(o)) (want(o, c)))",
        "(E o)(E c)(and (omelet(o)) (car(c)) (loud(o)) (want(o, c)))",
        "(E o :: omelet)(E c :: car)(and (loud(o)) (want(o, c)))",
        ["[o] (animal • person) -> person",
         "[o] (omelet • person) -> coerced: person via EATING(person, omelet)",
         "[c] (car • entity) -> car"],
        ["some loud person eating the omelet"]), ""),
    (("analyze", "The articulate person wants another omelet"), 0, analysis_report(
        "(E p :: person)(E o :: omelet)(and (articulate(p)) (want(p, o)))",
        "(E p)(E o)(and (person(p)) (omelet(o)) (articulate(p)) (want(p, o)))",
        "(E p :: person)(E o :: omelet)(and (articulate(p)) (want(p, o)))",
        ["[p] (animal • person) -> person", "[p] (person • person) -> person", "[o] (omelet • entity) -> omelet"],
        []), ""),
    (("analyze", "Julie is an articulate person"), 0, analysis_report(
        "(E! Julie :: person)(articulate(Julie))",
        "(E! Julie)(and (person(Julie)) (articulate(Julie)))",
        "(E! Julie :: person)(articulate(Julie))",
        ["[Julie] (person • person) -> person"], []), ""),
    (("analyze", "Julie is loud"), 0, analysis_report(
        "(E! Julie :: person)(loud(Julie))",
        "(E! Julie)(loud(Julie))",
        "(E! Julie)(loud(Julie))",
        ["[Julie] (person • person) -> person"], []), ""),
    (("analyze", "Julie is a red car"), 0, analysis_report(
        "(E! Julie :: car)(red(Julie))",
        "(E! Julie)(and (car(Julie)) (red(Julie)))",
        "(E! Julie :: car)(red(Julie))",
        ["[Julie] (car • physical) -> car"], []), ""),
    (("analyze", "All ravens are black"), 0, RAVENS.format(source="(A x)(raven(x) -> black(x))"), ""),
    (("analyze", "All non-black things are non-ravens"), 0,
     RAVENS.format(source="(A x)((! black(x)) -> (! raven(x)))"), ""),
    (("analyze", "@lf: (A x)(raven(x) -> black(x))"), 0, RAVENS.format(source="(A x)(raven(x) -> black(x))"), ""),
    (("analyze", "@lf: (A x)((! (! raven(x))) -> black(x))"), 0,
     RAVENS.format(source="(A x)((! (! raven(x))) -> black(x))"), ""),
    (("analyze", "@lf: (E o :: omelet)(loud(o))"), 0, analysis_report(
        "(E o :: person)(E o2 :: omelet)(and (EATING(o, o2)) (loud(o)))",
        "(E o :: omelet)(loud(o))",
        "(E o :: omelet)(loud(o))",
        ["[o] (omelet • person) -> coerced: person via EATING(person, omelet)"],
        ["some loud person eating the omelet"]), ""),
    (("analyze", "@lf: (E x)(and (ball(x)) (red(x)) (black(x)))"), 0, analysis_report(
        "(E x :: ball)(and (black(x)) (red(x)))",
        "(E x)(and (ball(x)) (red(x)) (black(x)))",
        "(E x :: ball)(and (black(x)) (red(x)))",
        ["[x] (physical • physical) -> physical", "[x] (ball • physical) -> ball"], []), ""),
    (("analyze", "@lf: (E! j :: person)(articulate(j))"), 0, analysis_report(
        "(E! j :: person)(articulate(j))",
        "(E! j :: person)(articulate(j))",
        "(E! j :: person)(articulate(j))",
        ["[j] (person • person) -> person"], []), ""),
    (("analyze", "@lf: (E x :: car)(want(Julie, x))"), 0, analysis_report(
        "(E x :: car)(want(Julie, x))",
        "(E x :: car)(want(Julie, x))",
        "(E x :: car)(want(Julie, x))",
        ["[x] (car • entity) -> car", "[Julie] (person • animal) -> person"], []), ""),
    # -- parse ---------------------------------------------------------------
    (("parse", "The loud omelet wants another beer"), 0,
     "(E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))\n", ""),
    (("parse", "All non-black things are non-ravens"), 0, "(A x)((! black(x)) -> (! raven(x)))\n", ""),
    (("parse", "All ravens are black"), 0, "(A x)(raven(x) -> black(x))\n", ""),
    (("parse", "Julie is an articulate person"), 0,
     "(E! Julie)(and (person(Julie)) (articulate(Julie)))\n", ""),
    (("parse", "@lf: (A x)((! (! red(x))) -> black(x))"), 0, "(A x)((! (! red(x))) -> black(x))\n", ""),
    # -- aor -----------------------------------------------------------------
    (("aor", "beautiful", "red", "--noun", "car"), 0, "Accepted: car -> physical -> entity\n", ""),
    (("aor", "loud", "--noun", "omelet"), 0, "Accepted: omelet -> person\n  (coerced at 'loud' via EATING)\n", ""),
    (("aor", "red", "loud", "--noun", "omelet"), 0,
     "Accepted: omelet -> person -> physical\n  (coerced at 'loud' via EATING)\n", ""),
    (("aor", "beautiful", "articulate", "--noun", "person"), 0, "Accepted: person -> person -> entity\n", ""),
    (("aor", "black", "red", "--noun", "raven"), 0, "Accepted: raven -> physical -> physical\n", ""),
    (("aor", "loud", "--noun", "car"), 2, "Type failure at 'loud'\n", ""),
    # -- hempel --------------------------------------------------------------
    (("hempel", "--h1", "All ravens are black", "--h2", "All non-black things are non-ravens",
     "--observe", "ball: red", "--observe", "raven: black"), 0,
     "h1 canonical: (A x :: raven)(black(x))\nh2 canonical: (A x :: raven)(black(x))\nequivalent: yes\n"
     "ball: red: h1 Neutral, h2 Neutral\nraven: black: h1 Confirms, h2 Confirms\n", ""),
    (("hempel", "--h1", "@lf: (A x)(raven(x) -> black(x))", "--h2",
     "@lf: (A x)((! black(x)) -> (! raven(x)))", "--observe", "raven:", "--observe", "car: black"), 0,
     "h1 canonical: (A x :: raven)(black(x))\nh2 canonical: (A x :: raven)(black(x))\nequivalent: yes\n"
     "raven:: h1 Neutral, h2 Neutral\ncar: black: h1 Neutral, h2 Neutral\n", ""),
    (("hempel", "--h1", "All ravens are black", "--h2", "All non-black things are non-ravens",
     "--observe", "raven: black=false"), 0,
     "h1 canonical: (A x :: raven)(black(x))\nh2 canonical: (A x :: raven)(black(x))\nequivalent: yes\n"
     "raven: black=false: h1 Disconfirms, h2 Disconfirms\n", ""),
    # -- rejected: unknown word, TypeCheckError, AOR violation, inequivalent --
    (("analyze", "The purple omelet wants another beer"), 3, "",
     "error: unknown content word 'purple'\n"),
    (("analyze", "Julie is a happy person"), 3, "", "error: unknown content word 'happy'\n"),
    (("parse", "The loud omelet eats another beer"), 3, "", "error: unknown content word 'eats'\n"),
    (("analyze", "@lf: (E x)(and (omelet(x)) (tasty(x)))"), 3, "", "error: unknown predicate 'tasty'\n"),
    (("analyze", "@lf: (E x)(loud(y))"), 3, "", "error: at position 11: unbound variable 'y'\n"),
    (("aor", "shiny", "--noun", "car"), 3, "", "error: unknown predicate 'shiny'\n"),
    (("unify", "unicorn", "person"), 3, "", "error: unknown type name 'unicorn'\n"),
    (("analyze", "The red car wants another beer"), 2, "",
     "error: 'c' of type car cannot satisfy expectation animal\n"),
    (("analyze", "Julie is an articulate car"), 2, "",
     "error: 'Julie' of type car cannot satisfy expectation person\n"),
    (("analyze", "The loud raven wants another beer"), 2, "",
     "error: 'r' of type raven cannot satisfy expectation person\n"),
    (("aor", "red", "beautiful", "--noun", "car"), 2,
     "Violation at 'red': expected physical, running entity\n", ""),
    (("aor", "articulate", "beautiful", "--noun", "person"), 2,
     "Violation at 'articulate': expected person, running entity\n", ""),
    (("hempel", "--h1", "All ravens are black", "--h2", "All ravens are red",
       "--observe", "raven: black=false"), 2,
     "h1 canonical: (A x :: raven)(black(x))\nh2 canonical: (A x :: raven)(red(x))\nequivalent: no\n"
     "raven: black=false: h1 Disconfirms, h2 Neutral  [disagree]\n", ""),
    (("hempel", "--h1", "All ravens are black", "--h2", "All non-red things are non-ravens"), 2,
     "h1 canonical: (A x :: raven)(black(x))\nh2 canonical: (A x :: raven)(red(x))\nequivalent: no\n", ""),
    (("hempel", "--h1", "All ravens are black", "--h2", "All non-black things are non-ravens",
       "--observe", "raven: purple"), 3, "", "error: unknown predicate 'purple' in observation\n"),
]

def unify_case(first: str, second: str):
    """A ``unify`` case over any two reference types, expected by ``ref_unify``."""
    out = ref_unify(first, second)
    return (("unify", first, second), 2 if out == "Failed" else 0, out + "\n", "")


def unify_pairs() -> list[tuple[str, str]]:
    types = list(REF_PARENT)
    return [(a, b) for a in types for b in types]
