"""Brute-force oracles and random generators backing the property tests.

Everything here recomputes expected results from first principles: ancestor
chains walked as plain lists, resource texts read by frozen copies of the
original per-line loaders and of the pattern loaders that followed them, LF
texts read by a frozen copy of the original reader, forms canonicalized by a frozen copy of the original canonicalizer,
forms typed by a frozen copy of the original analysis walk, adjective orders
judged by a direct monotone simulation, the truth of a logical form found by
trying every element of a small finite model. Apart from the analysis walk,
which canonicalizes, folds and prints through the package because those
steps have oracles of their own, none of it calls the package's own
comparison or rewriting logic, so agreement is evidence rather than tautology.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from ontologik.errors import (
    CanonicalizationError, LexiconError, LFSyntaxError, NestingError, OntologikError, OntologyError, TypeCheckError,
)
from ontologik.forms import read_prefix, with_prefix
from ontologik.lexicon import Lexicon, NameDecl, PredicateSignature, SalientRelation
from ontologik.ontology import Ontology
from ontologik.logform import (
    MAX_NESTING, And, Atom, Form, Not, Implies, Quant, QuantKind, _print, atoms, canonicalize, conj, pretty,
    sorted_conj,
)
from ontologik.unifier import (
    AnalyzedForm, Coerced, DerivationTrace, Failed, TraceStep, Unified, fold_expectations, unify_types,
)

# ----------------------------------------------------------------------
# subsumption oracles over a bare parent map {node: parent-or-None}
# ----------------------------------------------------------------------


def ancestor_chain(parent: dict[str, str | None], node: str) -> list[str]:
    chain = [node]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return chain


def oracle_subsumes(parent: dict[str, str | None], general: str, specific: str) -> bool:
    return general in ancestor_chain(parent, specific)


def oracle_compare(parent: dict[str, str | None], a: str, b: str) -> str:
    if a == b:
        return "equal"
    if oracle_subsumes(parent, a, b):
        return "first"
    if oracle_subsumes(parent, b, a):
        return "second"
    return "incomparable"


# ----------------------------------------------------------------------
# random trees
# ----------------------------------------------------------------------


def random_tree(rng: random.Random, max_nodes: int = 50) -> dict[str, str | None]:
    """A parent map, parents listed first, of one of three shapes: each node
    under a random earlier one, a chain, or a broom (a chain whose last node
    is the parent of every node after it)."""
    count = rng.randint(1, max_nodes)
    names = [f"t{i}" for i in range(count)]
    shape = rng.choice(("random", "chain", "broom"))
    handle = rng.randint(1, count)
    parent: dict[str, str | None] = {names[0]: None}
    for i, name in enumerate(names[1:], start=1):
        if shape == "chain" or (shape == "broom" and i < handle):
            parent[name] = names[i - 1]
        elif shape == "broom":
            parent[name] = names[handle - 1]
        else:
            parent[name] = rng.choice(list(parent))
    return parent


def tree_source(parent: dict[str, str | None]) -> str:
    lines = []
    for name, up in parent.items():
        lines.append(f"type {name}" if up is None else f"type {name} isa {up}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# loader oracle: a frozen copy of the original per-line loaders
# ----------------------------------------------------------------------
#
# The reference splits each line at "#", strips it and classifies its fields,
# one check at a time, and labels the tree with one children list per type.
# It returns plain data and raises the package's own error classes, with the
# package's messages and line numbers. Keep it as it is: it is the behaviour
# the loaders must reproduce.

_REF_TYPE_NAME = re.compile(r"[a-z_][a-z0-9_]*$")
_REF_PRED = re.compile(r"pred\s+([A-Za-z_]\w*)\s*\(\s*([^)]*?)\s*\)$")
_REF_REL = re.compile(r"rel\s+([A-Za-z_]\w*)\s*\(\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\)$")
_REF_NAME = re.compile(r"name\s+([A-Za-z_]\w*)\s*::\s*([A-Za-z_]\w*)$")

# (root, parent items in order, pre-order, last pre-order index of each
# subtree, depth), the last two indexed by pre-order number
OntologyData = tuple[str, tuple, tuple, tuple, tuple]
# (signature items, relations as (name, domain, range, priority), name items)
LexiconData = tuple[tuple, tuple, tuple]


def reference_labels(root: str, parent: dict[str, str | None]) -> tuple[tuple, tuple, tuple]:
    """Pre-order, subtree ends and depths of a parent map, or the
    :class:`OntologyError` that ``Ontology(root, parent)`` raises."""
    if parent.get(root, root) is not None:
        raise OntologyError(f"root '{root}' is not a parentless type")
    children: dict[str, list[str]] = {name: [] for name in parent}
    for name, up in parent.items():
        if up in children:
            children[up].append(name)
        elif up is not None:
            raise OntologyError(f"unknown parent '{up}' for '{name}'")
        elif name != root:
            raise OntologyError(f"second root '{name}' (root '{root}' already declared)")
    pre: dict[str, int] = {}
    order: list[str] = []
    depth: list[int] = []
    stack = [root]
    while stack:
        name = stack.pop()
        up = parent[name]
        pre[name] = len(order)
        order.append(name)
        depth.append(0 if up is None else depth[pre[up]] + 1)
        stack.extend(reversed(children[name]))
    if len(order) < len(parent):
        stray = next(name for name in parent if name not in pre)
        raise OntologyError(f"cycle: '{stray}' is not below root '{root}'")
    last = list(range(len(order)))
    for i in range(len(order) - 1, 0, -1):
        up = pre[parent[order[i]]]
        last[up] = max(last[up], last[i])
    return tuple(order), tuple(last), tuple(depth)


def reference_load_ontology(source: str) -> OntologyData:
    parent: dict[str, str | None] = {}
    root: str | None = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "type":
            raise OntologyError(f"expected a 'type' declaration, got '{line}'", lineno)
        if len(fields) == 2:
            name = fields[1]
            _ref_check_name(name, lineno)
            if name in parent:
                raise OntologyError(f"duplicate type '{name}'", lineno)
            if root is not None:
                raise OntologyError(f"second root '{name}' (root '{root}' already declared)", lineno)
            parent[name] = None
            root = name
        elif len(fields) == 4 and fields[2] == "isa":
            name, up = fields[1], fields[3]
            _ref_check_name(name, lineno)
            _ref_check_name(up, lineno)
            if up not in parent:
                raise OntologyError(f"unknown parent '{up}' for '{name}'", lineno)
            if name in parent:
                if _ref_would_cycle(parent, name, up):
                    raise OntologyError(f"cycle: '{name}' already subsumes '{up}'", lineno)
                if parent[name] != up:
                    raise OntologyError(
                        f"multiple parents for '{name}': '{parent[name] or root}' and '{up}'", lineno
                    )
                raise OntologyError(f"duplicate type '{name}'", lineno)
            parent[name] = up
        else:
            raise OntologyError(f"malformed declaration '{line}'", lineno)
    if root is None:
        raise OntologyError("missing root: no parentless type declared", len(source.splitlines()) or 1)
    return (root, tuple(parent.items()), *reference_labels(root, parent))


def _ref_check_name(name: str, lineno: int):
    if not _REF_TYPE_NAME.match(name):
        raise OntologyError(f"bad type name '{name}': lowercase identifier required", lineno)


def _ref_would_cycle(parent: dict[str, str | None], name: str, up: str) -> bool:
    cur: str | None = up
    while cur is not None:
        if cur == name:
            return True
        cur = parent[cur]
    return False


def reference_load_lexicon(source: str, types) -> LexiconData:
    """The lexicon ``source`` declares over the type names ``types``."""
    signatures: dict[str, tuple[str, ...]] = {}
    relations: dict[str, tuple[str, str, str, int]] = {}
    names: dict[str, str] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("pred"):
            m = _REF_PRED.match(line)
            if not m:
                raise LexiconError(f"malformed predicate declaration '{line}'", lineno)
            name, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
            if not all(args) or not args:
                raise LexiconError(f"predicate '{name}' needs at least one argument type", lineno)
            if name in types:
                raise LexiconError(f"predicate '{name}' clashes with an ontology type", lineno)
            if name in signatures:
                raise LexiconError(f"duplicate predicate '{name}'", lineno)
            if name in relations:
                raise LexiconError(f"predicate '{name}' clashes with a relation", lineno)
            for a in args:
                _ref_require_type(types, a, lineno)
            signatures[name] = tuple(args)
        elif line.startswith("rel"):
            m = _REF_REL.match(line)
            if not m:
                raise LexiconError(f"malformed relation declaration '{line}'", lineno)
            name, dom, rng = m.groups()
            if name in relations:
                raise LexiconError(f"duplicate relation '{name}'", lineno)
            if name in signatures:
                raise LexiconError(f"relation '{name}' clashes with a predicate", lineno)
            _ref_require_type(types, dom, lineno)
            _ref_require_type(types, rng, lineno)
            relations[name] = (name, dom, rng, len(relations))
        elif line.startswith("name"):
            m = _REF_NAME.match(line)
            if not m:
                raise LexiconError(f"malformed name declaration '{line}'", lineno)
            name, t = m.groups()
            if name in names:
                raise LexiconError(f"duplicate name '{name}'", lineno)
            _ref_require_type(types, t, lineno)
            names[name] = t
        else:
            raise LexiconError(f"unrecognized declaration '{line}'", lineno)
    return tuple(signatures.items()), tuple(relations.values()), tuple(names.items())


def _ref_require_type(types, name: str, lineno: int):
    if name not in types:
        raise LexiconError(f"unknown type '{name}'", lineno)


def reference_declared_name(line: str) -> str | None:
    """The name a predicate, relation or name line declares, as the
    reference reads the line, or None for any other line."""
    line = line.split("#", 1)[0].strip()
    m = _REF_PRED.match(line) or _REF_REL.match(line) or _REF_NAME.match(line)
    return m.group(1) if m else None


# ----------------------------------------------------------------------
# pattern loader oracle: a frozen copy of the one-pattern loaders
# ----------------------------------------------------------------------
#
# The reference reads each line with one regular expression per resource,
# which takes the whole declaration, comment included, or rejects the line,
# and rejects a line the pattern does not take by splitting its fields. It
# builds the package's own records and raises the package's own errors with
# their messages and line numbers, so it rejects every name the loaders
# reject. Keep it as it is: it is the behaviour the loaders must reproduce.

_PAT_TYPE_DECL = re.compile(r"\s*type\s+([a-z_][a-z0-9_]*)(?:\s+isa\s+([a-z_][a-z0-9_]*))?\s*(?:#.*)?")
_PAT_ID = r"([A-Za-z_]\w*)"
_PAT_LEX_DECL = re.compile(
    rf"\s*(?:pred\s+{_PAT_ID}\s*\(([^)#]*)\)|rel\s+{_PAT_ID}\s*\(\s*{_PAT_ID}\s*,\s*{_PAT_ID}\s*\)"
    rf"|name\s+{_PAT_ID}\s*::\s*{_PAT_ID})\s*(?:#.*)?"
)
_PAT_KEYWORDS = (("pred", "predicate"), ("rel", "relation"), ("name", "name"))


def pattern_load_ontology(source: str) -> Ontology:
    """What ``load_ontology`` returned while it read lines with a pattern."""
    parent: dict[str, str | None] = {}
    root: str | None = None
    lines = source.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        m = _PAT_TYPE_DECL.fullmatch(raw)
        if m is None:
            _pat_reject(raw, lineno)
            continue
        name, up = m.groups()
        if up in parent and name not in parent:
            parent[name] = up
        elif up is not None and up not in parent:
            raise OntologyError(f"unknown parent '{up}' for '{name}'", lineno)
        elif name in parent:
            if _ref_would_cycle(parent, name, up):
                raise OntologyError(f"cycle: '{name}' already subsumes '{up}'", lineno)
            if up not in (None, parent[name]):
                raise OntologyError(
                    f"multiple parents for '{name}': '{parent[name] or root}' and '{up}'", lineno
                )
            raise OntologyError(f"duplicate type '{name}'", lineno)
        elif root is not None:
            raise OntologyError(f"second root '{name}' (root '{root}' already declared)", lineno)
        else:
            parent[name], root = None, name
    if root is None:
        raise OntologyError("missing root: no parentless type declared", len(lines) or 1)
    return Ontology(root=root, parent=parent)


def _pat_reject(raw: str, lineno: int):
    line = raw.split("#", 1)[0].strip()
    if not line:
        return
    fields = line.split()
    if fields[0] != "type":
        raise OntologyError(f"expected a 'type' declaration, got '{line}'", lineno)
    if len(fields) == 2 or (len(fields) == 4 and fields[2] == "isa"):
        bad = next(name for name in fields[1::2] if not _PAT_TYPE_DECL.fullmatch(f"type {name}"))
        raise OntologyError(f"bad type name '{bad}': lowercase identifier required", lineno)
    raise OntologyError(f"malformed declaration '{line}'", lineno)


def pattern_load_lexicon(source: str, ont: Ontology) -> Lexicon:
    """What ``load_lexicon`` returned while it read lines with a pattern."""
    signatures: dict[str, PredicateSignature] = {}
    relations: dict[str, SalientRelation] = {}
    names: dict[str, NameDecl] = {}
    types = ont.parent
    for lineno, raw in enumerate(source.splitlines(), start=1):
        m = _PAT_LEX_DECL.fullmatch(raw)
        if m is None:
            line = raw.split("#", 1)[0].strip()
            if line:
                kind = next((kind for word, kind in _PAT_KEYWORDS if line.startswith(word)), None)
                what = f"malformed {kind}" if kind else "unrecognized"
                raise LexiconError(f"{what} declaration '{line}'", lineno)
            continue
        pred, args, rel, dom, rng, name, t = m.groups()
        if pred is not None:
            args = [a.strip() for a in args.split(",")]
            if not all(args):
                raise LexiconError(f"predicate '{pred}' needs at least one argument type", lineno)
            if pred in types or pred == "and" or not pred.isascii():
                raise _pat_misnamed("predicate", pred, types, lineno)
            if pred in signatures:
                raise LexiconError(f"duplicate predicate '{pred}'", lineno)
            if pred in relations:
                raise LexiconError(f"predicate '{pred}' clashes with a relation", lineno)
            for a in args:
                if a not in types:
                    raise LexiconError(f"unknown type '{a}'", lineno)
            signatures[pred] = PredicateSignature(pred, tuple(args))
        elif rel is not None:
            if rel in types or rel == "and" or not rel.isascii():
                raise _pat_misnamed("relation", rel, types, lineno)
            if rel in relations:
                raise LexiconError(f"duplicate relation '{rel}'", lineno)
            if rel in signatures:
                raise LexiconError(f"relation '{rel}' clashes with a predicate", lineno)
            if dom not in types or rng not in types:
                raise LexiconError(f"unknown type '{rng if dom in types else dom}'", lineno)
            relations[rel] = SalientRelation(rel, dom, rng, priority=len(relations))
        elif not (name.isascii() and name[0].isupper()):
            raise LexiconError(f"name '{name}' must be a capitalized ASCII identifier", lineno)
        elif name in names:
            raise LexiconError(f"duplicate name '{name}'", lineno)
        elif t not in types:
            raise LexiconError(f"unknown type '{t}'", lineno)
        else:
            names[name] = NameDecl(name, t)
    return Lexicon(signatures, tuple(relations.values()), names)


def _pat_misnamed(kind: str, name: str, types, lineno: int) -> LexiconError:
    if not name.isascii():
        return LexiconError(f"{kind} '{name}' must be an ASCII identifier", lineno)
    if name in types:
        return LexiconError(f"{kind} '{name}' clashes with an ontology type", lineno)
    return LexiconError(f"{kind} 'and' is a reserved word of the LF syntax", lineno)


def ontology_data(ont) -> OntologyData:
    """What :func:`reference_load_ontology` returns, read from an
    ``Ontology`` through its public queries."""
    order = tuple(ont.comparable_types(ont.root))
    depth = tuple(ont.depth(t) for t in order)
    last = tuple(ont.comparable_count(t) - depth[i] + i - 1 for i, t in enumerate(order))
    return ont.root, tuple(ont.parent.items()), order, last, depth


def lexicon_data(lex) -> LexiconData:
    return (
        tuple((name, sig.arg_types) for name, sig in lex.signatures.items()),
        tuple((r.name, r.domain_type, r.range_type, r.priority) for r in lex.relations),
        tuple((name, decl.declared_type) for name, decl in lex.names.items()),
    )


def outcome(load, *args) -> tuple:
    """``("ok", data)``, or the class name, message and line of the load
    error ``load(*args)`` raises."""
    try:
        return ("ok", load(*args))
    except (OntologyError, LexiconError) as err:
        return (type(err).__name__, str(err), err.line)


# A relation named after a type, a predicate or relation named "and" or
# with a non-ASCII name, and a proper name that is no capitalized ASCII
# identifier, which no LF text can use: the loader rejects these, the
# reference does not. The name is the first group that is not None.
NEW_LEXICON_REJECTION = re.compile(
    r"line \d+: (?:relation '(\w+)' clashes with an ontology type"
    r"|(?:predicate|relation) '(and)' is a reserved word of the LF syntax"
    r"|(?:predicate|relation) '(\w+)' must be an ASCII identifier"
    r"|name '(\w+)' must be a capitalized ASCII identifier)"
)


def misnamed(data: LexiconData, types) -> list[str]:
    """Predicates, relations and names of a reference lexicon that the
    loader now rejects."""
    signatures, relations, names = data
    return (
        [name for name, _ in signatures if name == "and" or not name.isascii()]
        + [rel[0] for rel in relations if rel[0] == "and" or rel[0] in types or not rel[0].isascii()]
        + [name for name, _ in names if not (name.isascii() and name[0].isupper())]
    )


# ----------------------------------------------------------------------
# resource corruption: seeded mutations of a resource text
# ----------------------------------------------------------------------

_TOKEN = re.compile(r"\w+|::|[^\w\s]")
# separators inside a line; \x0b and \x0c also end a line for str.splitlines
_BLANKS = (" ", "  ", "\t", "\x0b", "\x0c", "\x1f", "\xa0")
_LINE_ENDS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ")
_UNKNOWN = ("unicorn", "Person", "EATING2", "x1", "_", "and", "type", "isa", "pred", "rel", "name", "loudé")


def resource_vocabulary(*texts: str) -> list[str]:
    words = sorted({tok for text in texts for tok in _TOKEN.findall(text)})
    return words + [w.upper() for w in words if w.islower()] + list(_UNKNOWN)


def corrupt(rng: random.Random, text: str, vocab: list[str]) -> str:
    """``text`` after one to three random edits: a token inserted, deleted,
    doubled, replaced or upper-cased; a line inserted, deleted, doubled or
    moved; a blank swapped for other whitespace; a ``#`` put anywhere, often
    inside parentheses. Lines are then joined with one or more kinds of line
    end."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines)) if lines else 0
        line = lines[i] if lines else ""
        spans = [m.span() for m in _TOKEN.finditer(line)]
        op = rng.randrange(11)
        if op < 5 and spans:  # token edits
            a, b = rng.choice(spans)
            token = rng.choice(vocab)
            edit = (
                f" {token} " if rng.random() < 0.7 else token,  # insert before
                "",  # delete
                line[a:b] + rng.choice(_BLANKS) + line[a:b],  # double
                token,  # replace
                line[a:b].upper() if rng.random() < 0.5 else line[a:b].capitalize(),
            )[op]
            lines[i] = line[:a] + edit + line[a if op == 0 else b :]
        elif op == 5:
            lines.insert(rng.randint(0, len(lines)), rng.choice(lines) if lines else rng.choice(vocab))
        elif op == 6 and lines:
            del lines[i]
        elif op == 7 and lines:
            lines.insert(rng.randint(0, len(lines)), line)
        elif op == 8 and len(lines) > 1:
            lines.insert(rng.randrange(len(lines)), lines.pop(i))
        elif op == 9 and line:
            blanks = [j for j, c in enumerate(line) if c.isspace()] or [rng.randrange(len(line))]
            j = rng.choice(blanks)
            lines[i] = line[:j] + rng.choice(_BLANKS) + line[j + (line[j].isspace()) :]
        elif line:
            inside = [j for j in range(len(line)) if "(" in line[:j] and ")" in line[j:]]
            j = rng.choice(inside) if inside and rng.random() < 0.7 else rng.randint(0, len(line))
            lines[i] = line[:j] + "#" + line[j:]
    if rng.random() < 0.7:
        return rng.choice(_LINE_ENDS).join(lines)
    return "".join(line + rng.choice(_LINE_ENDS) for line in lines)


# Where a pattern's \s and \w and the str methods that look alike may part:
# blanks str.split takes or str.splitlines breaks at, comment and
# punctuation marks, and letters, digits and marks outside ASCII (a
# combining accent, a superscript, an Arabic-Indic digit, a titlecase
# letter, a capital whose lower case is two characters, the Kelvin sign,
# a ligature).
_SPLICES = (
    " ", "\xa0", "\x1f", "\x0b", "#", "::", "(", ")", ",",
    "\u00e9", "e\u0301", "\u00b2", "\u0660", "\u01c5", "\u0130", "\u212a", "\ufb01",
)


def splice(rng: random.Random, text: str) -> str:
    """``text`` with one to three of its declarations edited one to three
    times each: a piece of :data:`_SPLICES` put in at a random place or in
    place of a character, or a character deleted."""
    lines = text.split("\n")
    declarations = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    for i in rng.sample(declarations, rng.randint(1, 3)):
        line = lines[i]
        for _ in range(rng.randint(1, 3)):
            j = rng.randint(0, len(line))
            op = rng.random()
            if op < 0.6:
                line = line[:j] + rng.choice(_SPLICES) + line[j:]
            elif op < 0.9:
                line = line[:j] + rng.choice(_SPLICES) + line[j + 1 :]
            else:
                line = line[:j] + line[j + 1 :]
        lines[i] = line
    return "\n".join(lines)


# ----------------------------------------------------------------------
# coercion candidate oracle: scan every relation
# ----------------------------------------------------------------------

Relation = tuple[str, str, str, int]  # (name, domain, range, priority)


def random_relations(
    rng: random.Random, parent: dict[str, str | None], max_count: int = 30
) -> list[Relation]:
    """Relations over the types of ``parent``. Now and then one repeats an
    earlier (domain, range) pair, and in half the sets priorities repeat too,
    so every tie-break of the candidate order is reached."""
    nodes = list(parent)
    ties = rng.random() < 0.5
    out: list[Relation] = []
    for i in range(rng.randint(0, max_count)):
        if out and rng.random() < 0.3:
            _, domain, range_, _ = rng.choice(out)
        else:
            domain, range_ = rng.choice(nodes), rng.choice(nodes)
        out.append((f"R{i}", domain, range_, rng.randrange(3) if ties else i))
    return out


def oracle_candidates(
    parent: dict[str, str | None], relations: list[Relation], target: str, source: str
) -> list[str]:
    """Names of the relations whose domain is comparable with ``target`` and
    whose range is comparable with ``source``, found by scanning them all in
    declaration order and sorted (stably) by exact range match, then exact
    domain match, then priority."""
    found = [
        rel
        for rel in relations
        if oracle_compare(parent, rel[1], target) != "incomparable"
        and oracle_compare(parent, rel[2], source) != "incomparable"
    ]
    found.sort(key=lambda rel: (rel[2] != source, rel[1] != target, rel[3]))
    return [rel[0] for rel in found]


# ----------------------------------------------------------------------
# expectation-fold oracle: pairwise unification from the oracles above
# ----------------------------------------------------------------------


def oracle_unify(
    parent: dict[str, str | None], relations: list[Relation], first: str, second: str
) -> tuple:
    """``("unified", result)``, ``("coerced", result, relation, relatum)`` or
    ``("failed", first, second)``: the more specific of two comparable types,
    else the first candidate bridging ``first`` to the expectation
    ``second``, else one bridging ``second`` to ``first``. A coerced result
    is the more specific of the target and the relation's domain."""
    verdict = oracle_compare(parent, first, second)
    if verdict != "incomparable":
        return ("unified", second if verdict == "first" else first)
    domains = {rel[0]: rel[1] for rel in relations}
    for target, source in ((second, first), (first, second)):
        names = oracle_candidates(parent, relations, target, source)
        if names:
            domain = domains[names[0]]
            refined = target if oracle_subsumes(parent, domain, target) else domain
            return ("coerced", refined, names[0], source)
    return ("failed", first, second)


def oracle_fold(
    parent: dict[str, str | None], relations: list[Relation], declared: str, expectations: list[str]
) -> tuple[tuple, list[tuple[str, str]]]:
    """The outcome of folding ``declared`` with ``expectations``, as
    :func:`oracle_unify` writes outcomes, and one ``(detail, outcome)`` line
    per pair unified. The last expectation is the innermost and starts the
    fold; each earlier one joins it in turn, and ``declared`` joins last. A
    second coercion fails on the pair that would make it."""
    acc, coercion, lines = expectations[-1], None, []
    for left in [*expectations[-2::-1], declared]:
        outcome = oracle_unify(parent, relations, left, acc)
        if outcome[0] == "coerced" and coercion is not None:
            outcome = ("failed", left, acc)
        if outcome[0] == "unified":
            text = outcome[1]
        elif outcome[0] == "coerced":
            _, result, name, relatum = outcome
            text = f"coerced: {result} via {name}({result}, {relatum})"
        else:
            text = f"failed: {outcome[1]} vs {outcome[2]}"
        lines.append((f"({left} • {acc})", text))
        if outcome[0] == "failed":
            return outcome, lines
        if outcome[0] == "coerced":
            coercion = outcome
        acc = outcome[1]
    if coercion is None:
        return ("unified", acc), lines
    return ("coerced", acc, coercion[2], coercion[3]), lines


# ----------------------------------------------------------------------
# random logical forms over the reference lexicon vocabulary
# ----------------------------------------------------------------------

_UNARY = ("articulate", "loud", "beautiful", "red", "black")
_BINARY = ("want",)
_TYPES = (None, "entity", "physical", "living", "animal", "person", "omelet", "beer", "car", "raven")


def random_form(rng: random.Random, max_depth: int = 6) -> Form:
    serial = iter(range(1_000_000))

    def fresh() -> str:
        return f"v{next(serial)}"

    def atom(bound: list[str]) -> Form:
        if bound and len(_BINARY) and rng.random() < 0.25:
            return Atom(rng.choice(_BINARY), (rng.choice(bound), rng.choice(bound)))
        if bound and rng.random() < 0.9:
            return Atom(rng.choice(_UNARY), (rng.choice(bound),))
        return Atom(rng.choice(_UNARY), ("Julie",))

    def build(depth: int, bound: list[str]) -> Form:
        roll = rng.random()
        if depth <= 0:
            return atom(bound)
        if not bound or roll < 0.35:
            var = fresh()
            kind = rng.choice(list(QuantKind))
            return Quant(kind, var, rng.choice(_TYPES), build(depth - 1, bound + [var]))
        if roll < 0.50:
            return Not(build(depth - 1, bound))
        if roll < 0.70:
            return Implies(build(depth - 1, bound), build(depth - 1, bound))
        if roll < 0.85:
            return conj([build(depth - 1, bound) for _ in range(rng.randint(2, 3))])
        return atom(bound)

    var = fresh()
    kind = rng.choice(list(QuantKind))
    return Quant(kind, var, rng.choice(_TYPES), build(rng.randint(0, max_depth - 1), [var]))


_TYPE_NAMES = _TYPES[1:]


def random_liftable_form(rng: random.Random, max_depth: int = 2) -> Form:
    """Forms that reach membership lifting, which ``random_form`` never does.

    Type names stand as conjuncts under quantifier prefixes of mixed kinds,
    restricted or not, and as antecedents of implications under a universal.
    Contrapositives and double negations wrap some of them. Now and then a
    binder reuses the name of one in scope, the shadowing that only forms
    built through the API can have.
    """
    serial = iter(range(1_000_000))

    def membership(var: str) -> Form:
        return Atom(rng.choice(_TYPE_NAMES), (var,))

    def plain(bound: list[str]) -> Form:
        roll = rng.random()
        if roll < 0.2:
            return Atom(rng.choice(_BINARY + ("EATING",)), (rng.choice(bound), rng.choice(bound)))
        if roll < 0.9:
            return Atom(rng.choice(_UNARY), (rng.choice(bound),))
        return Atom(rng.choice(_UNARY), ("Julie",))

    def literal(depth: int, bound: list[str]) -> Form:
        roll = rng.random()
        if roll < 0.35:
            return membership(rng.choice(bound))
        if depth > 0 and roll < 0.55:
            return prefixed(depth - 1, bound)
        if roll < 0.65:
            return Not(Not(literal(depth, bound)))
        atom = plain(bound)
        return Not(atom) if rng.random() < 0.2 else atom

    def prefixed(depth: int, bound: list[str]) -> Form:
        prefix = []
        for _ in range(rng.randint(1, 3)):
            if bound and rng.random() < 0.1:
                var = rng.choice(bound)
            else:
                var = f"v{next(serial)}"
            vtype = rng.choice(_TYPE_NAMES) if rng.random() < 0.3 else None
            prefix.append((rng.choice(list(QuantKind)), var, vtype))
            bound = bound + [var]
        if rng.random() < 0.35:
            # (A x)(T(x) -> ...), or its contrapositive (A x)((! ...) -> (! T(x)))
            var = prefix[-1][1]
            if rng.random() < 0.7:
                prefix[-1] = (QuantKind.FORALL, var, None)
            antecedent = membership(var)
            consequent = conj([literal(depth, bound) for _ in range(rng.randint(1, 2))])
            if rng.random() < 0.3:
                matrix: Form = Implies(Not(consequent), Not(antecedent))
            else:
                matrix = Implies(antecedent, consequent)
        else:
            matrix = conj([literal(depth, bound) for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.1:
            matrix = Not(Not(matrix))
        for kind, var, vtype in reversed(prefix):
            matrix = Quant(kind, var, vtype, matrix)
        return matrix

    return prefixed(rng.randint(0, max_depth), [])


# ----------------------------------------------------------------------
# reader oracle: a frozen copy of the original LF reader
# ----------------------------------------------------------------------
#
# The reference finds tokens with one regex findall and reads them with one
# method per production, a grouped form through form -> _parenthesized ->
# form. It builds the package's own node classes and raises the package's
# own error classes, with the package's messages and positions. Keep it as
# it is: it is the behaviour parse_lf must reproduce.

_REF_ONE_TOKEN = re.compile(r"::|->|[()!,]|[A-Za-z_][A-Za-z0-9_]*")
_REF_TOKEN_RE = re.compile(_REF_ONE_TOKEN.pattern + r"|\S.*", re.DOTALL)
_REF_PUNCT = frozenset(("::", "->", "(", ")", "!", ",", None))
_REF_QUANT_KINDS = {"E": QuantKind.EXISTS, "E!": QuantKind.EXISTS_UNIQUE, "A": QuantKind.FORALL}


def _ref_deeper(depth: int) -> int:
    if depth >= MAX_NESTING:
        raise NestingError()
    return depth + 1


class _RefParser:
    def __init__(self, source: str):
        toks = _REF_TOKEN_RE.findall(source)
        if toks and not _REF_ONE_TOKEN.fullmatch(toks[-1]):
            at = len(source) - len(toks[-1])
            raise LFSyntaxError(f"unexpected character '{source[at]}'", at)
        self.source, self.toks = source, toks + [None] * 3

    def at(self, i: int) -> int:
        offs = [m.start() for m in _REF_TOKEN_RE.finditer(self.source)]
        return offs[i] if i < len(offs) else len(self.source)

    def reject(self, i: int, expected: str):
        self.reject_ident(i, f"'{expected}'")

    def reject_ident(self, i: int, what: str):
        if self.toks[i] is None:
            raise LFSyntaxError(f"unexpected end of input, expected {what}", self.at(i))
        raise LFSyntaxError(f"expected {what}, got '{self.toks[i]}'", self.at(i))

    def form(self, i: int, bound: frozenset[str], depth: int) -> tuple[Form, int]:
        tok = self.toks[i]
        if tok == "(":
            return self._parenthesized(i, bound, depth)
        if tok not in _REF_PUNCT:
            return self._atom(i, bound)
        self.reject_ident(i, "a form")

    def _parenthesized(self, i: int, bound: frozenset[str], depth: int) -> tuple[Form, int]:
        if depth > MAX_NESTING:
            raise NestingError()
        toks = self.toks
        head = toks[i + 1]
        if head == "!":
            inner, i = self.form(i + 2, bound, _ref_deeper(depth))
            if toks[i] != ")":
                self.reject(i, ")")
            return Not(inner), i + 1
        if head == "and":
            i, items, inner = i + 2, [], _ref_deeper(depth)
            while (tok := toks[i]) != ")":
                if tok is None:
                    raise LFSyntaxError("unterminated conjunction", self.at(i))
                item, i = self.form(i, bound, inner)
                items.append(item)
            if not items:
                raise LFSyntaxError("empty conjunction", self.at(i + 1))
            return conj(items), i + 1
        if self._quantifier_ahead(i):
            return self._quantifiers(i, bound, _ref_deeper(depth))
        left, i = self.form(i + 1, bound, depth + 1)
        if toks[i] == "->":
            right, i = self.form(i + 1, bound, _ref_deeper(depth))
            if toks[i] != ")":
                self.reject(i, ")")
            return Implies(left, right), i + 1
        if toks[i] != ")":
            self.reject(i, ")")
        return left, i + 1

    def _quantifier_ahead(self, i: int) -> bool:
        toks = self.toks
        head, second = toks[i + 1], toks[i + 2]
        if head == "E" and second == "!":
            return True
        return head not in _REF_PUNCT and second not in _REF_PUNCT and toks[i + 3] in ("::", ")")

    def _quantifiers(self, i: int, bound: frozenset[str], depth: int) -> tuple[Form, int]:
        toks, prefix, scope = self.toks, [], set(bound)
        while True:
            kind_at, kind_tok = i + 1, toks[i + 1]
            i += 2
            if kind_tok == "E" and toks[i] == "!":
                i, kind_tok = i + 1, "E!"
            kind = _REF_QUANT_KINDS.get(kind_tok)
            if kind is None:
                raise LFSyntaxError(f"unknown quantifier kind '{kind_tok}'", self.at(kind_at))
            var, vtype = toks[i], None
            if var in _REF_PUNCT:
                self.reject_ident(i, "a variable")
            if var in scope:
                raise LFSyntaxError(f"'{var}' already bound in an enclosing scope", self.at(i))
            if toks[i + 1] == "::":
                i, vtype = i + 2, toks[i + 2]
                if vtype in _REF_PUNCT:
                    self.reject_ident(i, "a type name")
            if toks[i + 1] != ")":
                self.reject(i + 1, ")")
            i += 2
            prefix.append((kind, var, vtype))
            scope.add(var)
            if toks[i] != "(" or toks[i + 1] == "and" or not self._quantifier_ahead(i):
                matrix, i = self.form(i, frozenset(scope), depth)
                for kind, var, vtype in reversed(prefix):
                    matrix = Quant(kind, var, vtype, matrix)
                return matrix, i

    def _atom(self, i: int, bound: frozenset[str]) -> tuple[Form, int]:
        toks, pred, args = self.toks, self.toks[i], []
        if toks[i + 1] != "(":
            self.reject(i + 1, "(")
        i += 2
        while True:
            term = toks[i]
            if term in _REF_PUNCT:
                self.reject_ident(i, "a term")
            if term not in bound and not term[0].isupper():
                raise LFSyntaxError(f"unbound variable '{term}'", self.at(i))
            args.append(term)
            if toks[i + 1] != ",":
                break
            i += 2
        if toks[i + 1] != ")":
            self.reject(i + 1, ")")
        return Atom(pred, tuple(args)), i + 2


def reference_parse_lf(source: str) -> Form:
    """What ``parse_lf`` returned before its reader was rewritten."""
    parser = _RefParser(source)
    form, i = parser.form(0, frozenset(), 0)
    if parser.toks[i] is not None:
        raise LFSyntaxError(f"trailing input '{parser.toks[i]}'", parser.at(i))
    return form


def parse_outcome(parse, source: str) -> tuple:
    """``("ok", form)``, or the class name, message and position of the
    error ``parse(source)`` raises."""
    try:
        return ("ok", parse(source))
    except LFSyntaxError as err:
        return (type(err).__name__, str(err), err.position)
    except NestingError as err:
        return (type(err).__name__, str(err), None)


# What an edit of LF text puts in: the tokens, pieces of "::" and "->", a word
# that starts with a digit, characters that start no token, and whitespace
# that is no space ("\x1c" is whitespace to both regex \s and str.split).
_LF_EDITS = (
    "::", "->", ":", "-", ">", "(", ")", "!", ",", " ", "9x", "10", "é", "@", "#", "\t", "\n", "\x1c",
    "E", "A", "and", "x", "v0", "v10x", "Julie", "loud", "person",
)


def mangle_lf(rng: random.Random, text: str) -> str:
    """``text`` after one to three random edits, each an insert, a delete or
    a replace of one to three characters, with what it puts in drawn from
    ``_LF_EDITS``."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        cut = at + rng.randint(1, 3) if text and rng.random() < 0.6 else at
        put = "" if cut > at and rng.random() < 0.5 else rng.choice(_LF_EDITS)
        text = text[:at] + put + text[cut:]
    return text


# ----------------------------------------------------------------------
# canonicalizer oracle: a frozen copy of the one-walk canonicalizer
# ----------------------------------------------------------------------
#
# The reference walks every atom through a call of its own, flattens each
# scope's conjuncts into a copy, and builds its lifting tables afresh each
# round. It sorts by the package's pretty, which prints the texts the
# package's memo holds and raises where that printer raises. It builds the
# package's own nodes and raises the package's own errors with their
# messages. Keep it as it is: it is the behaviour canonicalize must reproduce.


def reference_canonicalize(form: Form, ont, lex) -> Form:
    """What ``canonicalize`` returned before its per-node work was cut."""
    bad = [0]
    cf = _ref_canon(form, ont, lex, bad)
    if bad[0]:
        for atom in atoms(cf):
            if atom.pred in ont.parent:
                raise CanonicalizationError(
                    f"type name '{atom.pred}' used as a predicate where no rewrite can lift it: "
                    f"{pretty(atom)}"
                )
            if atom.pred not in lex.arg_types:
                raise CanonicalizationError(f"unknown predicate '{atom.pred}'")
    return cf


def _ref_flatten(items) -> list[Form]:
    flat: list[Form] = []
    for item in items:
        if isinstance(item, And):
            flat += item.items
        else:
            flat.append(item)
    return flat


def _ref_canon(f: Form, ont, lex, bad: list[int], depth: int = 0) -> Form:
    if isinstance(f, Atom):
        if f.pred in ont.parent or f.pred not in lex.arg_types:
            bad[0] += 1
        return f
    if depth >= MAX_NESTING:
        raise NestingError()
    depth += 1
    if isinstance(f, Quant):
        prefix, matrix = read_prefix(f)
        for kind, _, _ in prefix:
            if not isinstance(kind, QuantKind):
                while f.kind is not kind:
                    f = f.body
                raise CanonicalizationError(f"not a form: {f!r}")
        if isinstance(matrix, And) and matrix.items:
            if depth >= MAX_NESTING:
                raise NestingError()
            items = [_ref_canon(item, ont, lex, bad, depth + 1) for item in matrix.items]
        else:
            items = [_ref_canon(matrix, ont, lex, bad, depth)]
        return _ref_lift(prefix, _ref_flatten(items), ont, bad)
    if isinstance(f, And) and f.items:
        return _ref_sorted_conj(_ref_flatten([_ref_canon(i, ont, lex, bad, depth) for i in f.items]))
    if isinstance(f, Implies):
        a = _ref_canon(f.antecedent, ont, lex, bad, depth)
        c = _ref_canon(f.consequent, ont, lex, bad, depth)
        if isinstance(a, Not) and isinstance(c, Not):
            return Implies(c.item, a.item)
        return Implies(a, c)
    if isinstance(f, Not):
        inner = _ref_canon(f.item, ont, lex, bad, depth)
        return inner.item if isinstance(inner, Not) else Not(inner)
    raise CanonicalizationError("empty conjunction" if isinstance(f, And) else f"not a form: {f!r}")


def _ref_sorted_conj(items: list[Form]) -> Form:
    items.sort(key=pretty)
    return items[0] if len(items) == 1 else And(tuple(items))


def _ref_lift(prefix, items: list[Form], ont, bad: list[int]) -> Form:
    matrix = None
    while len(items) > 1 or isinstance(items[0], Quant):
        if len(items) == 1:
            inner, matrix = read_prefix(items[0])
            prefix += inner
            items = list(matrix.items) if isinstance(matrix, And) else [matrix]
            continue
        owner: dict[str, int | None] = {}
        for i in reversed(range(len(prefix))):
            kind, var, vtype = prefix[i]
            if kind is QuantKind.FORALL and vtype is not None:
                break
            owner.setdefault(var, None if kind is QuantKind.FORALL or vtype else i)
        found: dict[int, int] = {}
        for j, item in enumerate(items):
            if isinstance(item, Atom) and len(item.args) == 1 and item.pred in ont.parent:
                i = owner.get(item.args[0])
                if i is not None and (i not in found or item.pred < items[found[i]].pred):
                    found[i] = j
        taken = {found[i]: i for i in sorted(found)[: len(items) - 1]}
        if not taken:
            break
        for j, i in taken.items():
            kind, var, _ = prefix[i]
            prefix[i] = (kind, var, items[j].pred)
        bad[0] -= len(taken)
        matrix, items = None, [item for j, item in enumerate(items) if j not in taken]
        if len(items) > 1:
            break
    if matrix is None:
        matrix = items[0] if len(items) == 1 else _ref_sorted_conj(items)
    kind, var, vtype = prefix[-1]
    if kind is QuantKind.FORALL and vtype is None and isinstance(matrix, Implies):
        a = matrix.antecedent
        if isinstance(a, Atom) and len(a.args) == 1 and a.args[0] == var and a.pred in ont.parent:
            prefix[-1], matrix = (kind, var, a.pred), matrix.consequent
            bad[0] -= 1
    return with_prefix(prefix, matrix)


def canonical_outcome(canon, form: Form, ont, lex) -> tuple:
    """``("ok", form, text)`` for what ``canon`` returns, with its printed
    text, or the class name and message of the error it raises."""
    try:
        cf = canon(form, ont, lex)
    except (CanonicalizationError, NestingError) as err:
        return (type(err).__name__, str(err))
    return ("ok", cf, pretty(cf))


# ----------------------------------------------------------------------
# analysis oracle: a frozen copy of the one-walk analysis
# ----------------------------------------------------------------------
#
# The reference walks every atom through a call of its own, copies the
# scope at every prefix, reads each prefix into a binder list and compares
# it with the typed one. It canonicalizes, folds and prints through the
# package, builds the package's own nodes and records, and raises the
# package's own errors with their messages. Keep it as it is: it is the
# behaviour analyze must reproduce, the defects of ROADMAP items 1 and 8
# included, until those items change it by name.


def reference_analyze(form: Form, ont, lex) -> AnalyzedForm:
    """What ``analyze`` returned before its walk was rewritten."""
    trace = DerivationTrace()
    memo: dict = {}
    cf = canonicalize(form, ont, lex, memo)
    trace.add("canonicalize", None, _print(form, {}, 0), _print(cf, memo, 0))
    typed, height, binders, const_slots = _ref_walk(cf, ont, lex, memo)
    for var, outcome, steps, _ in binders:
        if isinstance(outcome, Failed):
            raise TypeCheckError(var, outcome.left, outcome.right)
        trace.steps.extend(steps)
    for const, expectation in const_slots:
        declared = lex.names[const].declared_type
        outcome = unify_types(ont, lex, declared, expectation)
        trace.add("unify", const, f"({declared} • {expectation})", _ref_describe(outcome))
        if not isinstance(outcome, Unified):
            raise TypeCheckError(const, declared, expectation)
    if height > MAX_NESTING:
        raise NestingError()
    glosses = [gloss for *_, gloss in binders if gloss is not None]
    return AnalyzedForm(typed, trace, glosses, _print(typed, memo, 0))


def _ref_describe(outcome) -> str:
    if type(outcome) is Unified:
        return outcome.result
    if type(outcome) is Coerced:
        result = outcome.result
        return f"coerced: {result} via {outcome.relation.name}({result}, {outcome.relatum_type})"
    return f"failed: {outcome.left} vs {outcome.right}"


def _ref_walk(cf: Form, ont, lex, memo: dict) -> tuple[Form, int, list, list]:
    binders: list = []
    const_slots: list = []
    folds: dict = {}
    used: set[str] = set()

    def fold(var, declared, expectations):
        if not expectations:
            return Unified(declared), [TraceStep("type", var, var, declared)]
        key = (declared, *expectations)
        hit = folds.get(key)
        if hit is not None:
            return hit[0], [TraceStep(s.op, var, s.detail, s.outcome) for s in hit[1]]
        outcome, sub = fold_expectations(ont, lex, declared, expectations[::-1], subject=var)
        hit = folds[key] = outcome, sub.steps
        return hit

    reach = [0]

    def walk(f, scope, positive):
        if isinstance(f, Atom):
            types = lex.arg_types[f.pred]
            if len(types) != len(f.args):
                raise LexiconError(f"'{f.pred}' expects {len(types)} argument(s), got {len(f.args)}")
            for expectation, arg in zip(types, f.args):
                slots = scope.get(arg)
                if slots is not None:
                    slots[0].append(expectation)
                    if positive and len(types) == 1:
                        slots[1].append(f.pred)
                elif arg in lex.names:
                    const_slots.append((arg, expectation))
                else:
                    raise LexiconError(f"unknown constant '{arg}'")
            return f
        outer, reach[0] = reach[0], 0
        if isinstance(f, Quant):
            prefix, matrix = read_prefix(f)
            scope, own, at = dict(scope), [], len(binders)
            for _, var, declared in prefix:
                if declared is None:
                    declared = lex.names[var].declared_type if var in lex.names else ont.root
                ont.require(declared)
                scope[var] = slots = [], []
                own.append((declared, *slots))
            binders.extend([None] * len(own))
            items = matrix.items if isinstance(matrix, And) else (matrix,)
            walked = [walk(i, scope, positive) for i in items]
            typed, bridges = [], []
            for (kind, var, _), (declared, expectations, adjectives) in zip(prefix, own):
                outcome, steps = fold(var, declared, expectations)
                final = declared if isinstance(outcome, Failed) else outcome.result
                typed.append((kind, var, final))
                gloss = None
                if isinstance(outcome, Coerced):
                    if not used:
                        used.update(_ref_names(cf))
                    n = 2
                    while f"{var}{n}" in used:
                        n += 1
                    used.add(fresh := f"{var}{n}")
                    rel, relatum = outcome.relation.name, outcome.relatum_type
                    typed.append((QuantKind.EXISTS, fresh, relatum))
                    bridges.append(Atom(rel, (var, fresh)))
                    gloss = f"some {' '.join([*adjectives, final])} {rel.lower()} the {relatum}"
                binders[at] = var, outcome, steps, gloss
                at += 1
            height = reach[0] + (2 if len(items) + len(bridges) > 1 else 1)
            if not bridges and all(w is i for w, i in zip(walked, items)):
                f = f if typed == prefix else with_prefix(typed, matrix)
            else:
                f = with_prefix(typed, sorted_conj(walked + bridges, memo))
        elif isinstance(f, And):
            walked = [walk(i, scope, positive) for i in f.items]
            height = reach[0] + 1
            if not all(w is i for w, i in zip(walked, f.items)):
                f = sorted_conj(walked, memo)
        elif isinstance(f, Implies):
            a, c = walk(f.antecedent, scope, not positive), walk(f.consequent, scope, positive)
            height = reach[0] + 1
            if a is not f.antecedent or c is not f.consequent:
                f = Implies(a, c)
        else:
            inner = walk(f.item, scope, not positive)
            height = reach[0] + 1
            if inner is not f.item:
                f = Not(inner)
        reach[0] = height if height > outer else outer
        return f

    typed = walk(cf, {}, True)
    return typed, reach[0], binders, const_slots


def _ref_names(cf: Form) -> set[str]:
    names, stack = set(), [cf]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            names.update(f.args)
        elif isinstance(f, Quant):
            names.add(f.var)
            stack.append(f.body)
        elif isinstance(f, And):
            stack.extend(f.items)
        elif isinstance(f, Not):
            stack.append(f.item)
        else:
            stack += (f.antecedent, f.consequent)
    return names


def analysis_outcome(analyze, form: Form, ont, lex) -> tuple:
    """``("ok", form, text, trace steps, glosses)`` for what ``analyze``
    returns, or the class name and message of the error it raises."""
    try:
        got = analyze(form, ont, lex)
    except OntologikError as err:
        return (type(err).__name__, str(err))
    return ("ok", got.form, got.text, tuple(got.trace.steps), tuple(got.missing_text))


# bench/gen.py's binders: an adjective on a plain type, a person called loud
# or articulate now and then, and a share of loud omelets, which bridge.
_BENCH_TYPES = ("car", "ball", "raven", "beer", "omelet", "food", "animal", "artifact")
_BENCH_ADJECTIVES = ("red", "black", "beautiful")


def _bench_binders(rng: random.Random, names: list[str], bridge_share: float) -> list[tuple[str, str]]:
    bridged = set(rng.sample(range(len(names)), round(bridge_share * len(names))))
    out = []
    for i in range(len(names)):
        if i in bridged:
            out.append(("omelet", "loud"))
        elif rng.random() < 0.1:
            out.append(("person", rng.choice(("loud", "articulate"))))
        else:
            out.append((rng.choice(_BENCH_TYPES), rng.choice(_BENCH_ADJECTIVES)))
    return out


def bench_prefix(rng: random.Random, count: int, bridge_share: float = 0.2) -> Form:
    """``(E v0x)...(E vNx)(and ...)`` over one membership and one adjective
    atom per binder, shuffled, as bench/gen.py's existential prefix."""
    names = [f"v{i}x" for i in range(count)]
    items = [Atom(p, (v,)) for v, pair in zip(names, _bench_binders(rng, names, bridge_share)) for p in pair]
    rng.shuffle(items)
    return with_prefix([(QuantKind.EXISTS, v, None) for v in names], And(tuple(items)))


def bench_conjunction(rng: random.Random, count: int, bridge_share: float = 0.2) -> Form:
    """``(and (E v0x)(and (T(v0x)) (adj(v0x))) ...)``, as bench/gen.py's wide conjunction."""
    names = [f"v{i}x" for i in range(count)]
    conjuncts = []
    for v, pair in zip(names, _bench_binders(rng, names, bridge_share)):
        both = [Atom(p, (v,)) for p in pair]
        rng.shuffle(both)
        conjuncts.append(Quant(QuantKind.EXISTS, v, None, And(tuple(both))))
    return And(tuple(conjuncts))


def nested_prefixes(outer: int = 1000, inner: int = 400) -> Form:
    """An ``outer``-binder prefix of persons over a conjunction of ``inner``
    one-binder prefixes, each a loud omelet that one outer person wants, so
    each inner prefix is read and bridged under the whole outer prefix. Names
    end in ``x``, so no relatum's name is taken."""
    conjuncts = tuple(
        Quant(QuantKind.EXISTS, f"i{j}x", "omelet",
              And((Atom("loud", (f"i{j}x",)), Atom("want", (f"o{j % outer}x", f"i{j}x")))))
        for j in range(inner)
    )
    return with_prefix([(QuantKind.EXISTS, f"o{i}x", "person") for i in range(outer)], And(conjuncts))


# ----------------------------------------------------------------------
# small-scope enumeration
# ----------------------------------------------------------------------

# One bridge, a predicate on each side of it and one that fits both sides,
# over the reference ontology.
ENUM_LEXICON = "pred loud(person)\npred tasty(food)\npred red(physical)\nrel EATING(person, food)\n"
_ENUM_RESTRICTIONS = (None, "food")


def enumerate_forms(binders: int = 2, atoms: int = 2, connectives: int = 1) -> list[Form]:
    """Every closed form over :data:`ENUM_LEXICON`'s vocabulary with at most
    ``binders`` binders, at least one and at most ``atoms`` atoms, and at
    most ``connectives`` of ``!``, ``->`` and ``and`` (a binary ``and``).

    Binders come in every kind, unrestricted or restricted to ``food``, the
    type ``loud`` bridges from. A binder with ``n`` binders above it binds
    ``x<n>``, so variables are named in binding order, no binder shadows
    another and no two forms are alpha-variants."""
    memo: dict[tuple[int, int, int, int], list[Form]] = {}

    def exactly(n: int, b: int, a: int, c: int) -> list[Form]:
        # forms over x0 .. x<n-1> with exactly b binders, a atoms and c connectives
        key = (n, b, a, c)
        if key in memo:
            return memo[key]
        out: list[Form] = []
        bound = [f"x{i}" for i in range(n)]
        if (b, a, c) == (0, 1, 0):
            out += [Atom(p, (v,)) for p in ("loud", "tasty", "red") for v in bound]
            out += [Atom("EATING", (u, v)) for u in bound for v in bound]
        if b:
            out += [Quant(kind, f"x{n}", r, body) for kind in QuantKind for r in _ENUM_RESTRICTIONS
                    for body in exactly(n + 1, b - 1, a, c)]
        if c:
            out += [Not(body) for body in exactly(n, b, a, c - 1)]
            for b1, a1, c1 in itertools.product(range(b + 1), range(1, a), range(c)):
                for left in exactly(n, b1, a1, c1):
                    for right in exactly(n, b - b1, a - a1, c - 1 - c1):
                        out += (Implies(left, right), And((left, right)))
        memo[key] = out
        return out

    return [f for b in range(binders + 1) for a in range(1, atoms + 1) for c in range(connectives + 1)
            for f in exactly(0, b, a, c)]


def adjacent_swaps(form: Form) -> list[Form]:
    """Every form that ``form`` becomes when two adjacent binders, both
    ``E`` or both ``A``, trade places, wherever they stand. Such binders
    commute: a restriction is a type name, so it mentions no variable."""
    out: list[Form] = []
    if isinstance(form, Quant):
        inner = form.body
        if isinstance(inner, Quant) and inner.kind is form.kind is not QuantKind.EXISTS_UNIQUE:
            out.append(Quant(inner.kind, inner.var, inner.vtype, Quant(form.kind, form.var, form.vtype, inner.body)))
        out += [Quant(form.kind, form.var, form.vtype, body) for body in adjacent_swaps(inner)]
    elif isinstance(form, Not):
        out += [Not(item) for item in adjacent_swaps(form.item)]
    elif isinstance(form, Implies):
        out += [Implies(a, form.consequent) for a in adjacent_swaps(form.antecedent)]
        out += [Implies(form.antecedent, c) for c in adjacent_swaps(form.consequent)]
    elif isinstance(form, And):
        for i, item in enumerate(form.items):
            out += [And((*form.items[:i], swapped, *form.items[i + 1 :])) for swapped in adjacent_swaps(item)]
    return out


def renamed_apart(form: Form, rng: random.Random, env: dict[str, str] | None = None,
                  used: set[str] | None = None) -> Form:
    """``form`` with each binder's variable renamed to a random ``v<n>`` that
    no other binder takes (``used``); ``env`` maps each name in scope to its
    new name, and a free name stays as it is."""
    env = {} if env is None else env
    used = set() if used is None else used
    match form:
        case Atom(pred, args):
            return Atom(pred, tuple(env.get(arg, arg) for arg in args))
        case And(items):
            return And(tuple(renamed_apart(item, rng, env, used) for item in items))
        case Not(item):
            return Not(renamed_apart(item, rng, env, used))
        case Implies(antecedent, consequent):
            return Implies(renamed_apart(antecedent, rng, env, used), renamed_apart(consequent, rng, env, used))
        case Quant(kind, var, vtype, body):
            while (fresh := f"v{rng.randrange(1_000_000)}") in used:
                pass
            used.add(fresh)
            return Quant(kind, fresh, vtype, renamed_apart(body, rng, {**env, var: fresh}, used))


# ----------------------------------------------------------------------
# finite-model oracle: brute-force truth of a form
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A finite interpretation. Elements are ``0 .. size-1``; each has one
    type and belongs to every type above it. A type with no element below it
    is empty. ``extension`` holds the argument tuples each predicate is true
    of; type names never appear in it."""

    size: int
    members: dict[str, frozenset[int]]
    extension: dict[str, frozenset[tuple[int, ...]]]
    constants: dict[str, int]


def random_model(
    rng: random.Random,
    parent: dict[str, str | None],
    arities: dict[str, int],
    constants: tuple[str, ...] = ("Julie",),
) -> Model:
    size = rng.randint(1, 4)
    own = [rng.choice(list(parent)) for _ in range(size)]
    members: dict[str, set[int]] = {t: set() for t in parent}
    for element, t in enumerate(own):
        for up in ancestor_chain(parent, t):
            members[up].add(element)
    extension = {
        pred: frozenset(
            args
            for args in itertools.product(range(size), repeat=arity)
            if rng.random() < 0.5
        )
        for pred, arity in arities.items()
    }
    return Model(
        size,
        {t: frozenset(m) for t, m in members.items()},
        extension,
        {c: rng.randrange(size) for c in constants},
    )


def holds(form: Form, model: Model, env: dict[str, int] | None = None) -> bool:
    """Whether ``form`` is true in ``model`` under the variable assignment
    ``env``. A type name in predicate position is read as membership."""
    env = env or {}
    match form:
        case Atom(pred, args):
            elements = tuple(env[a] if a in env else model.constants[a] for a in args)
            if pred in model.members:
                return len(elements) == 1 and elements[0] in model.members[pred]
            return elements in model.extension[pred]
        case Not(item):
            return not holds(item, model, env)
        case And(items):
            return all(holds(i, model, env) for i in items)
        case Implies(a, c):
            return not holds(a, model, env) or holds(c, model, env)
        case Quant(kind, var, vtype, body):
            scope = range(model.size) if vtype is None else sorted(model.members[vtype])
            truths = (holds(body, model, {**env, var: d}) for d in scope)
            if kind is QuantKind.EXISTS:
                return any(truths)
            if kind is QuantKind.FORALL:
                return all(truths)
            return list(itertools.islice(filter(None, truths), 2)) == [True]
    raise TypeError(f"not a form: {form!r}")


# ----------------------------------------------------------------------
# adjective-order oracle: direct monotone-expectation simulation
# ----------------------------------------------------------------------


def oracle_order(
    parent: dict[str, str | None], expectations: list[str], noun: str
) -> tuple:
    """Judge an order given the expected type of each adjective position,
    outermost first, over a lexicon with no salient relations. The running
    type starts at the noun and, scanning from the innermost position
    outward, may only step to equal-or-more-general expectations."""
    running = noun
    chain = [noun]
    for i in range(len(expectations) - 1, -1, -1):
        expected = expectations[i]
        if oracle_subsumes(parent, expected, running):
            running = expected
        elif oracle_subsumes(parent, running, expected):
            return ("violation", i, expected, running)
        else:
            return ("type_failure", i)
        chain.append(running)
    return ("accepted", tuple(chain))
