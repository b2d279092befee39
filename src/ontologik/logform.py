"""Logical forms: term structure, surface syntax, and canonical rewriting.

The surface syntax is a small ASCII s-expression language::

    (E! j :: person)(articulate(j))
    (A x)(raven(x) -> black(x))
    (E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))
    (A x)((! black(x)) -> (! raven(x)))

The tokens are ``::``, ``->``, each of ``( ) ! ,`` and ASCII identifiers
(a letter or ``_``, then letters, digits and ``_``). Whitespace separates
tokens and is otherwise ignored, so ``E!`` may also be written ``E !``; the
first character that starts no token is the error.

Quantifier kinds are ``E`` (exists), ``E!`` (exists unique) and ``A`` (all);
an optional ``:: type`` after the bound variable restricts it. Atom arguments
are either bound variables or capitalized constants (proper names); a
lowercase argument with no binder in scope is rejected.

Canonicalization rewrites a form to a normal shape so that logically
equivalent statements compare equal: double negations are erased,
contrapositives are turned around, type-membership atoms are lifted into
quantifier restrictions, and conjunctions are flattened and sorted. One
bottom-up walk does all of it, rebuilding each node from parts that are
already canonical; any type name still sitting in predicate position
afterwards is an error, never silently kept. Analysis hands the walk a memo
for the call, so each conjunct is printed once per analysis: the text it was
sorted by is the text the trace line and the typed form print.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
from typing import Iterator, NoReturn, Union

from .errors import CanonicalizationError, LFSyntaxError, NestingError
from .lexicon import Lexicon
from .ontology import Ontology, TypeName


class QuantKind(Enum):
    EXISTS = "E"
    EXISTS_UNIQUE = "E!"
    FORALL = "A"


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class And:
    items: tuple["Form", ...]


@dataclass(frozen=True)
class Not:
    item: "Form"


@dataclass(frozen=True)
class Implies:
    antecedent: "Form"
    consequent: "Form"


@dataclass(frozen=True)
class Quant:
    kind: QuantKind
    var: str
    vtype: TypeName | None
    body: "Form"

    # A prefix is read in a loop, as alpha_equal does, so comparing or
    # hashing a prefix of any length takes no frame per binder.
    def __eq__(self, other):
        if not isinstance(other, Quant):
            return NotImplemented
        a, b = self, other
        while isinstance(a, Quant) and isinstance(b, Quant):
            if a.kind is not b.kind or a.var != b.var or a.vtype != b.vtype:
                return False
            a, b = a.body, b.body
        return a == b

    def __hash__(self):
        prefix, matrix = read_prefix(self)
        return hash((tuple(prefix), matrix))


Form = Union[Atom, And, Not, Implies, Quant]

# How deep negations, implications, conjunctions and quantifier prefixes may
# nest. The walks below take at most three frames per level (a prefix is read
# in a loop), so this stays well inside Python's default 1,000-frame limit.
MAX_NESTING = 200


def deeper(depth: int) -> int:
    """The level below a Not, And, Implies or quantifier prefix at ``depth``
    (the outermost is at 0); :class:`NestingError` past the cap."""
    if depth >= MAX_NESTING:
        raise NestingError()
    return depth + 1


# A canonical form is an ordinary Form as canonicalize builds it, which no
# rewrite below changes; the alias only marks intent in signatures.
CanonicalForm = Form


def conj(items: list[Form] | tuple[Form, ...]) -> Form:
    """Build a conjunction, collapsing the one-element case."""
    flat: list[Form] = []
    for item in items:
        if isinstance(item, And):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        raise ValueError("empty conjunction")
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

# A token is "::", "->", one of "()!," or an ASCII identifier. _TOKEN_RE adds
# an alternative that takes a stray character with the rest of the text, so
# only the last match can be one. Every token that is not punctuation is an
# identifier, and None marks the end of the input.
_ONE_TOKEN = re.compile(r"::|->|[()!,]|[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(_ONE_TOKEN.pattern + r"|\S.*", re.DOTALL)
_PUNCT = frozenset(("::", "->", "(", ")", "!", ",", None))
_QUANT_KINDS = {"E": QuantKind.EXISTS, "E!": QuantKind.EXISTS_UNIQUE, "A": QuantKind.FORALL}


def _tokenize(source: str) -> list[str | None]:
    # The tokens, padded with three end sentinels, so the parser looks three
    # tokens ahead without a bounds check.
    toks = _TOKEN_RE.findall(source)
    if toks and not _ONE_TOKEN.fullmatch(toks[-1]):
        at = len(source) - len(toks[-1])
        raise LFSyntaxError(f"unexpected character '{source[at]}'", at)
    toks += [None] * 3
    return toks


class _Parser:
    # Each method takes the index of its first token and returns what it read
    # with the index after it. Offsets are found again only for an error: a
    # match object per token would add about a third to the parse.
    def __init__(self, source: str):
        self.source, self.toks = source, _tokenize(source)

    def at(self, i: int) -> int:
        offs = [m.start() for m in _TOKEN_RE.finditer(self.source)]
        return offs[i] if i < len(offs) else len(self.source)

    def reject(self, i: int, expected: str) -> NoReturn:
        if self.toks[i] is None:
            raise LFSyntaxError(f"unexpected end of input, expected '{expected}'", self.at(i))
        raise LFSyntaxError(f"expected '{expected}', got '{self.toks[i]}'", self.at(i))

    def reject_ident(self, i: int, what: str) -> NoReturn:
        raise LFSyntaxError(f"expected {what}, got '{self.toks[i]}'", self.at(i))

    # -- grammar ---------------------------------------------------------

    def form(self, i: int, bound: frozenset[str], depth: int) -> tuple[Form, int]:
        tok = self.toks[i]
        if tok == "(":
            return self._parenthesized(i, bound, depth)
        if tok not in _PUNCT:
            return self._atom(i, bound)
        raise LFSyntaxError(f"expected a form, got '{tok}'", self.at(i))

    def _parenthesized(self, i: int, bound: frozenset[str], depth: int) -> tuple[Form, int]:
        # Levels count as in _canon: a Not, and, -> or quantifier prefix at
        # ``depth`` needs depth < MAX_NESTING. Parentheses that only group
        # take a level too, so they cannot nest without bound, but they may
        # open at MAX_NESTING itself, where all they can hold is an atom:
        # that is how pretty prints an atom in a conjunction or a matrix.
        if depth > MAX_NESTING:
            raise NestingError()
        toks = self.toks
        head = toks[i + 1]
        if head == "!":
            inner, i = self.form(i + 2, bound, deeper(depth))
            if toks[i] != ")":
                self.reject(i, ")")
            return Not(inner), i + 1
        if head == "and":
            i, items, inner = i + 2, [], deeper(depth)
            while (tok := toks[i]) != ")":
                if tok is None:
                    raise LFSyntaxError("unterminated conjunction", self.at(i))
                item, i = self.form(i, bound, inner)
                items.append(item)
            if not items:
                raise LFSyntaxError("empty conjunction", self.at(i + 1))
            return conj(items), i + 1
        if self._quantifier_ahead(i):
            return self._quantifiers(i, bound, deeper(depth))
        # grouped form or implication
        left, i = self.form(i + 1, bound, depth + 1)
        if toks[i] == "->":
            right, i = self.form(i + 1, bound, deeper(depth))
            if toks[i] != ")":
                self.reject(i, ")")
            return Implies(left, right), i + 1
        if toks[i] != ")":
            self.reject(i, ")")
        return left, i + 1

    def _quantifier_ahead(self, i: int) -> bool:
        # "(" ident ident  or  "(" "E" "!" ident  means a binder follows.
        toks = self.toks
        head, second = toks[i + 1], toks[i + 2]
        if head == "E" and second == "!":
            return True
        return head not in _PUNCT and second not in _PUNCT and toks[i + 3] in ("::", ")")

    def _quantifiers(self, i: int, bound: frozenset[str], depth: int) -> tuple[Form, int]:
        # A whole prefix in one loop, so binders cost no stack frames. The
        # caller has seen the first binder; before each further one the loop
        # makes the checks that form and _parenthesized would make.
        toks, prefix, scope = self.toks, [], set(bound)
        while True:
            kind_at, kind_tok = i + 1, toks[i + 1]
            i += 2
            if kind_tok == "E" and toks[i] == "!":
                i, kind_tok = i + 1, "E!"
            kind = _QUANT_KINDS.get(kind_tok)
            if kind is None:
                raise LFSyntaxError(f"unknown quantifier kind '{kind_tok}'", self.at(kind_at))
            var, vtype = toks[i], None
            if var in _PUNCT:
                self.reject_ident(i, "a variable")
            if var in scope:
                raise LFSyntaxError(f"'{var}' already bound in an enclosing scope", self.at(i))
            if toks[i + 1] == "::":
                i, vtype = i + 2, toks[i + 2]
                if vtype in _PUNCT:
                    self.reject_ident(i, "a type name")
            if toks[i + 1] != ")":
                self.reject(i + 1, ")")
            i += 2
            prefix.append((kind, var, vtype))
            scope.add(var)
            if toks[i] != "(" or toks[i + 1] == "and" or not self._quantifier_ahead(i):
                matrix, i = self.form(i, frozenset(scope), depth)
                return with_prefix(prefix, matrix), i

    def _atom(self, i: int, bound: frozenset[str]) -> tuple[Form, int]:
        toks, pred, args = self.toks, self.toks[i], []
        if toks[i + 1] != "(":
            self.reject(i + 1, "(")
        i += 2
        while True:
            term = toks[i]
            if term in _PUNCT:
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


def parse_lf(source: str) -> Form:
    """Parse surface syntax into a :class:`Form`. Errors carry positions;
    text nested deeper than :data:`MAX_NESTING` raises :class:`NestingError`."""
    parser = _Parser(source)
    form, i = parser.form(0, frozenset(), 0)
    if parser.toks[i] is not None:
        raise LFSyntaxError(f"trailing input '{parser.toks[i]}'", parser.at(i))
    return form


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


# bench/spans.py wraps pretty as a function of the form alone: keep it so.
def pretty(form: Form) -> str:
    """Render a form in the surface syntax. ``parse_lf(pretty(f)) == f``.

    A form nested past :data:`MAX_NESTING` levels, counted as
    :func:`canonicalize` counts them, raises :class:`NestingError`."""
    return _pretty(form, 0)


def _pretty(form: Form, depth: int) -> str:
    # ``depth`` is the level ``form`` stands at.
    if isinstance(form, Atom):
        return f"{form.pred}({', '.join(form.args)})"
    match form:
        case Not(item):
            return f"(! {_pretty(item, deeper(depth))})"
        case Implies(antecedent, consequent):
            depth = deeper(depth)
            return f"({_pretty(antecedent, depth)} -> {_pretty(consequent, depth)})"
        case And(items):
            depth = deeper(depth)
            return "(and " + " ".join(map(_grouped, items, repeat(depth))) + ")"
        case Quant():
            depth, text = deeper(depth), ""
            while isinstance(form, Quant):  # a whole prefix, without recursion
                kind, var, vtype = form.kind.value, form.var, form.vtype
                text += f"({kind} {var} :: {vtype})" if vtype else f"({kind} {var})"
                form = form.body
            return text + _grouped(form, depth)
    raise TypeError(f"not a form: {form!r}")


def _grouped(form: Form, depth: int) -> str:
    # Atoms need explicit parentheses when standing where a form is expected;
    # every other node prints its own.
    text = _pretty(form, depth)
    return f"({text})" if isinstance(form, Atom) else text


# ----------------------------------------------------------------------
# structural walks
# ----------------------------------------------------------------------


def binders(form: Form) -> list[tuple[str, TypeName | None]]:
    """All (variable, restriction) pairs in binding (pre-order) order."""
    out: list[tuple[str, TypeName | None]] = []
    stack = [form]
    while stack:
        match stack.pop():
            case Quant(_, var, vtype, body):
                out.append((var, vtype))
                stack.append(body)
            case And(items):
                stack.extend(reversed(items))
            case Not(item):
                stack.append(item)
            case Implies(a, c):
                stack += (c, a)
    return out


def atoms(form: Form) -> Iterator[Atom]:
    """All atoms, left to right."""
    stack = [form]
    while stack:
        match stack.pop():
            case Atom() as atom:
                yield atom
            case And(items):
                stack.extend(reversed(items))
            case Not(item) | Quant(_, _, _, item):
                stack.append(item)
            case Implies(a, c):
                stack += (c, a)


def constants(form: Form) -> list[str]:
    """Capitalized atom arguments not bound by any enclosing quantifier."""
    out: list[str] = []
    stack: list[tuple[Form, frozenset[str]]] = [(form, frozenset())]
    while stack:
        f, bound = stack.pop()
        match f:
            case Atom(_, args):
                out.extend(a for a in args if a not in bound and a not in out)
            case And(items):
                stack.extend((i, bound) for i in reversed(items))
            case Not(item):
                stack.append((item, bound))
            case Implies(a, c):
                stack += ((c, bound), (a, bound))
            case Quant():
                prefix, matrix = read_prefix(f)
                stack.append((matrix, bound.union(var for _, var, _ in prefix)))
    return out


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------


def canonicalize(form: Form, ont: Ontology, lex: Lexicon, memo: dict | None = None) -> CanonicalForm:
    """Rewrite ``form`` to canonical shape in one bottom-up walk.

    Each node is rebuilt from canonical parts so that it stays canonical: a
    double negation cancels, ``(! a) -> (! c)`` turns around to ``c -> a``,
    and a conjunction is flattened and sorted by printed form. Under each
    quantifier prefix, every unrestricted ``E``/``E!`` binder, outermost
    first, takes the first conjunct ``T(x)`` on its own variable as its
    restriction, until one conjunct is left as the scope. Nothing is lifted
    across a restricted ``A``: its restriction may be empty, which makes the
    universal true whatever the atom says. A matrix that shrinks to a
    quantifier joins its prefix, and the binders look again. Only then may
    an innermost unrestricted ``A`` take a type antecedent as its restriction.

    ``memo``, an empty dict that :func:`~ontologik.unifier.analyze` keeps for
    one call, collects the texts the sort printed (see :func:`sorted_conj`).

    A form nested deeper than :data:`MAX_NESTING` raises :class:`NestingError`.
    """
    cf = _canon(form, ont, memo)
    for atom in atoms(cf):
        if atom.pred in ont:
            raise CanonicalizationError(
                f"type name '{atom.pred}' used as a predicate where no rewrite can lift it: "
                f"{pretty(atom)}"
            )
        if lex.atom_signature(atom.pred) is None:
            raise CanonicalizationError(f"unknown predicate '{atom.pred}'")
    return cf


def _canon(f: Form, ont: Ontology, memo: dict | None, depth: int = 0) -> Form:
    if isinstance(f, Atom):
        return f
    depth = deeper(depth)
    match f:
        case Not(item):
            inner = _canon(item, ont, memo, depth)
            return inner.item if isinstance(inner, Not) else Not(inner)
        case Implies(a, c):
            a, c = _canon(a, ont, memo, depth), _canon(c, ont, memo, depth)
            if isinstance(a, Not) and isinstance(c, Not):
                return Implies(c.item, a.item)
            return Implies(a, c)
        case And(items):
            return sorted_conj([_canon(i, ont, memo, depth) for i in items], memo)
        case Quant():
            prefix, matrix = read_prefix(f)
            return _lift(prefix, _canon(matrix, ont, memo, depth), ont)
    return f


def sorted_conj(items: list[Form], memo: dict | None = None) -> Form:
    """Like :func:`conj`, but the conjuncts are sorted by printed form.

    With ``memo``, the text of each conjunct that is not an atom is read
    from it or recorded in it, under the conjunct's ``id``, as ``(conjunct,
    text)``: holding the conjunct keeps its ``id`` from being reused while
    the memo lives."""
    flat: list[Form] = []
    for item in items:
        flat.extend(item.items if isinstance(item, And) else (item,))
    flat.sort(key=pretty if memo is None else partial(_text, memo))
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def _text(memo: dict, form: Form) -> str:
    # The sort key of a conjunct: pretty(form), recorded unless it is an atom.
    if isinstance(form, Atom):
        return f"{form.pred}({', '.join(form.args)})"
    hit = memo.get(id(form))
    if hit is None:
        hit = memo[id(form)] = form, _memo_pretty(form, memo)
    return hit[1]


def _memo_pretty(form: Form, memo: dict) -> str:
    """``pretty(form)`` for a form analysis prints, reading the conjunct
    texts recorded in ``memo``. Each such form (the input, its canonical
    form, the typed form) has passed the nesting check of
    :func:`canonicalize` or of the typed rebuild, so this printer makes none."""
    if isinstance(form, Atom):
        return f"{form.pred}({', '.join(form.args)})"
    hit = memo.get(id(form))
    if hit is not None:
        return hit[1]
    match form:
        case And(items):
            return "(and " + " ".join([
                f"({i.pred}({', '.join(i.args)}))" if isinstance(i, Atom) else _memo_pretty(i, memo)
                for i in items
            ]) + ")"
        case Not(item):
            return f"(! {_memo_pretty(item, memo)})"
        case Implies(antecedent, consequent):
            return f"({_memo_pretty(antecedent, memo)} -> {_memo_pretty(consequent, memo)})"
        case Quant():
            text = ""
            while isinstance(form, Quant):
                kind, var, vtype = form.kind.value, form.var, form.vtype
                text += f"({kind} {var} :: {vtype})" if vtype else f"({kind} {var})"
                form = form.body
            matrix = _memo_pretty(form, memo)
            return text + (f"({matrix})" if isinstance(form, Atom) else matrix)
    raise TypeError(f"not a form: {form!r}")


Binder = tuple[QuantKind, str, TypeName | None]


def read_prefix(f: Form) -> tuple[list[Binder], Form]:
    """The maximal quantifier prefix of ``f``, outermost first, and its matrix."""
    prefix = []
    while isinstance(f, Quant):
        prefix.append((f.kind, f.var, f.vtype))
        f = f.body
    return prefix, f


def with_prefix(prefix: list[Binder], matrix: Form) -> Form:
    """The inverse of :func:`read_prefix`."""
    for kind, var, vtype in reversed(prefix):
        matrix = Quant(kind, var, vtype, matrix)
    return matrix


def _lift(prefix: list[Binder], matrix: Form, ont: Ontology) -> Form:
    # Membership lifting under one prefix, by the rules canonicalize gives.
    inner, matrix = read_prefix(matrix)
    prefix += inner
    while isinstance(matrix, And):
        owner: dict[str, int | None] = {}  # variable -> its innermost binder, if that may lift
        for i in reversed(range(len(prefix))):
            kind, var, vtype = prefix[i]
            if kind is QuantKind.FORALL and vtype is not None:
                break
            owner.setdefault(var, None if kind is QuantKind.FORALL or vtype else i)
        found: dict[int, int] = {}  # binder -> its first membership conjunct
        for j, item in enumerate(matrix.items):
            if isinstance(item, Atom) and item.pred in ont and len(item.args) == 1:
                if (i := owner.get(item.args[0])) is not None:
                    found.setdefault(i, j)
        taken = {found[i]: i for i in sorted(found)[: len(matrix.items) - 1]}
        if not taken:
            break
        for j, i in taken.items():
            kind, var, _ = prefix[i]
            prefix[i] = (kind, var, matrix.items[j].pred)
        rest = [item for j, item in enumerate(matrix.items) if j not in taken]
        inner, matrix = read_prefix(rest[0] if len(rest) == 1 else And(tuple(rest)))
        prefix += inner
    match prefix[-1], matrix:
        case (QuantKind.FORALL, var, None), Implies(Atom(pred, args), body) if (
            pred in ont and args == (var,)
        ):
            prefix[-1] = (QuantKind.FORALL, var, pred)
            matrix = body
    return with_prefix(prefix, matrix)


# ----------------------------------------------------------------------
# alpha equality
# ----------------------------------------------------------------------


def alpha_equal(a: Form, b: Form) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    return _alpha(a, b, {}, {})


def _alpha(a: Form, b: Form, env_a: dict[str, int], env_b: dict[str, int]) -> bool:
    match a, b:
        case Atom(pa, aa), Atom(pb, ab):
            if pa != pb or len(aa) != len(ab):
                return False
            for x, y in zip(aa, ab):
                if (x in env_a) != (y in env_b):
                    return False
                if x in env_a:
                    if env_a[x] != env_b[y]:
                        return False
                elif x != y:  # free constants compare literally
                    return False
            return True
        case And(ia), And(ib):
            return len(ia) == len(ib) and all(
                _alpha(x, y, env_a, env_b) for x, y in zip(ia, ib)
            )
        case Not(x), Not(y):
            return _alpha(x, y, env_a, env_b)
        case Implies(xa, xc), Implies(ya, yc):
            return _alpha(xa, ya, env_a, env_b) and _alpha(xc, yc, env_a, env_b)
        case Quant(), Quant():
            env_a, env_b = dict(env_a), dict(env_b)
            while isinstance(a, Quant) and isinstance(b, Quant):  # a whole prefix
                if a.kind is not b.kind or a.vtype != b.vtype:
                    return False
                serial = len(env_a)
                env_a[a.var] = env_b[b.var] = serial
                a, b = a.body, b.body
            return _alpha(a, b, env_a, env_b)
    return False
