"""Logical forms: term structure, surface syntax, and canonical rewriting.

The surface syntax is a small ASCII s-expression language::

    (E! j :: person)(articulate(j))
    (A x)(raven(x) -> black(x))
    (E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))
    (A x)((! black(x)) -> (! raven(x)))

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
afterwards is an error, never silently kept.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .errors import CanonicalizationError, LFSyntaxError
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


Form = Union[Atom, And, Not, Implies, Quant]

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

_TOKEN_RE = re.compile(r"\s*(::|->|[()!,]|[A-Za-z_][A-Za-z0-9_]*)")
_QUANT_KINDS = {"E": QuantKind.EXISTS, "E!": QuantKind.EXISTS_UNIQUE, "A": QuantKind.FORALL}


def _tokenize(source: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or not m.group(1):
            if source[pos:].strip():
                bad = source[pos:].lstrip()
                at = len(source) - len(bad)
                raise LFSyntaxError(f"unexpected character '{bad[0]}'", at)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def _is_ident(tok: str | None) -> bool:
    return bool(tok) and (tok[0].isalpha() or tok[0] == "_")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.tokens[j][0] if j < len(self.tokens) else None

    def pos(self, ahead: int = 0) -> int:
        j = self.i + ahead
        return self.tokens[j][1] if j < len(self.tokens) else len(self.source)

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.tokens):
            raise LFSyntaxError(
                f"unexpected end of input" + (f", expected '{expected}'" if expected else ""),
                len(self.source),
            )
        tok, at = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise LFSyntaxError(f"expected '{expected}', got '{tok}'", at)
        self.i += 1
        return tok

    def take_ident(self, what: str) -> str:
        tok = self.peek()
        if not _is_ident(tok):
            raise LFSyntaxError(f"expected {what}, got '{tok}'", self.pos())
        return self.take()

    # -- grammar ---------------------------------------------------------

    def form(self, bound: frozenset[str]) -> Form:
        tok = self.peek()
        if tok == "(":
            return self._parenthesized(bound)
        if _is_ident(tok):
            return self._atom(bound)
        raise LFSyntaxError(f"expected a form, got '{tok}'", self.pos())

    def _parenthesized(self, bound: frozenset[str]) -> Form:
        head = self.peek(1)
        if head == "!":
            self.take("(")
            self.take("!")
            inner = self.form(bound)
            self.take(")")
            return Not(inner)
        if head == "and":
            self.take("(")
            self.take("and")
            items = []
            while self.peek() != ")":
                if self.peek() is None:
                    raise LFSyntaxError("unterminated conjunction", self.pos())
                items.append(self.form(bound))
            self.take(")")
            if not items:
                raise LFSyntaxError("empty conjunction", self.pos())
            return conj(items)
        if self._quantifier_ahead():
            return self._quantifier(bound)
        # grouped form or implication
        self.take("(")
        left = self.form(bound)
        if self.peek() == "->":
            self.take("->")
            right = self.form(bound)
            self.take(")")
            return Implies(left, right)
        self.take(")")
        return left

    def _quantifier_ahead(self) -> bool:
        # "(" ident ident  or  "(" "E" "!" ident  means a binder follows.
        head, second = self.peek(1), self.peek(2)
        if head == "E" and second == "!":
            return True
        return _is_ident(head) and _is_ident(second) and self.peek(3) in ("::", ")")

    def _quantifier(self, bound: frozenset[str]) -> Form:
        self.take("(")
        at = self.pos()
        kind_tok = self.take()
        if kind_tok == "E" and self.peek() == "!":
            self.take("!")
            kind_tok = "E!"
        kind = _QUANT_KINDS.get(kind_tok)
        if kind is None:
            raise LFSyntaxError(f"unknown quantifier kind '{kind_tok}'", at)
        var_at = self.pos()
        var = self.take_ident("a variable")
        if var in bound:
            raise LFSyntaxError(f"'{var}' already bound in an enclosing scope", var_at)
        vtype = None
        if self.peek() == "::":
            self.take("::")
            vtype = self.take_ident("a type name")
        self.take(")")
        body = self.form(bound | {var})
        return Quant(kind, var, vtype, body)

    def _atom(self, bound: frozenset[str]) -> Form:
        pred = self.take_ident("a predicate")
        self.take("(")
        args = []
        while True:
            at = self.pos()
            term = self.take_ident("a term")
            if term not in bound and not term[0].isupper():
                raise LFSyntaxError(f"unbound variable '{term}'", at)
            args.append(term)
            if self.peek() == ",":
                self.take(",")
                continue
            break
        self.take(")")
        return Atom(pred, tuple(args))


def parse_lf(source: str) -> Form:
    """Parse surface syntax into a :class:`Form`. Errors carry positions."""
    parser = _Parser(source)
    form = parser.form(frozenset())
    if parser.peek() is not None:
        raise LFSyntaxError(f"trailing input '{parser.peek()}'", parser.pos())
    return form


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


def pretty(form: Form) -> str:
    """Render a form in the surface syntax. ``parse_lf(pretty(f)) == f``."""
    match form:
        case Atom(pred, args):
            return f"{pred}({', '.join(args)})"
        case Not(item):
            return f"(! {pretty(item)})"
        case Implies(antecedent, consequent):
            return f"({pretty(antecedent)} -> {pretty(consequent)})"
        case And(items):
            return "(and " + " ".join(_grouped(i) for i in items) + ")"
        case Quant(kind, var, vtype, body):
            head = f"({kind.value} {var} :: {vtype})" if vtype else f"({kind.value} {var})"
            return head + _grouped(body)
    raise TypeError(f"not a form: {form!r}")


def _grouped(form: Form) -> str:
    # Atoms need explicit parentheses when standing where a form is expected;
    # every other node prints its own.
    text = pretty(form)
    return f"({text})" if isinstance(form, Atom) else text


# ----------------------------------------------------------------------
# structural walks
# ----------------------------------------------------------------------


def binders(form: Form) -> list[tuple[str, TypeName | None]]:
    """All (variable, restriction) pairs in binding (pre-order) order."""
    out: list[tuple[str, TypeName | None]] = []

    def walk(f: Form):
        match f:
            case Quant(_, var, vtype, body):
                out.append((var, vtype))
                walk(body)
            case And(items):
                for i in items:
                    walk(i)
            case Not(item):
                walk(item)
            case Implies(a, c):
                walk(a)
                walk(c)
            case Atom():
                pass

    walk(form)
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

    def walk(f: Form, bound: frozenset[str]):
        match f:
            case Atom(_, args):
                out.extend(a for a in args if a not in bound and a not in out)
            case And(items):
                for i in items:
                    walk(i, bound)
            case Not(item):
                walk(item, bound)
            case Implies(a, c):
                walk(a, bound)
                walk(c, bound)
            case Quant(_, var, _, body):
                walk(body, bound | {var})

    walk(form, frozenset())
    return out


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------


def canonicalize(form: Form, ont: Ontology, lex: Lexicon) -> CanonicalForm:
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
    """
    cf = _canon(form, ont)
    for atom in atoms(cf):
        if atom.pred in ont:
            raise CanonicalizationError(
                f"type name '{atom.pred}' used as a predicate where no rewrite can lift it: "
                f"{pretty(atom)}"
            )
        if lex.atom_signature(atom.pred) is None:
            raise CanonicalizationError(f"unknown predicate '{atom.pred}'")
    return cf


def _canon(f: Form, ont: Ontology) -> Form:
    match f:
        case Not(item):
            inner = _canon(item, ont)
            return inner.item if isinstance(inner, Not) else Not(inner)
        case Implies(a, c):
            a, c = _canon(a, ont), _canon(c, ont)
            if isinstance(a, Not) and isinstance(c, Not):
                return Implies(c.item, a.item)
            return Implies(a, c)
        case And(items):
            return sorted_conj([_canon(i, ont) for i in items])
        case Quant():
            prefix, matrix = read_prefix(f)
            return _lift(prefix, _canon(matrix, ont), ont)
    return f


def sorted_conj(items: list[Form]) -> Form:
    """Like :func:`conj`, but the conjuncts are sorted by printed form."""
    flat: list[Form] = []
    for item in items:
        flat.extend(item.items if isinstance(item, And) else (item,))
    flat.sort(key=pretty)
    return flat[0] if len(flat) == 1 else And(tuple(flat))


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
        case Quant(ka, va, ta, ba), Quant(kb, vb, tb, bb):
            if ka is not kb or ta != tb:
                return False
            serial = len(env_a)
            return _alpha(ba, bb, {**env_a, va: serial}, {**env_b, vb: serial})
    return False
