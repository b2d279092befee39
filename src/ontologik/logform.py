"""Logical forms: term structure, surface syntax, and canonical rewriting.

The surface syntax is a small ASCII s-expression language::

    (E! j :: person)(articulate(j))
    (A x)(raven(x) -> black(x))
    (E o)(E b)(and (omelet(o)) (beer(b)) (loud(o)) (want(o, b)))
    (A x)((! black(x)) -> (! raven(x)))

The tokens are ``::``, ``->``, each of ``( ) ! ,`` and ASCII identifiers
(a letter or ``_``, then letters, digits and ``_``). Whitespace separates
tokens and is otherwise ignored, so ``E!`` may also be written ``E !``; the
first character that starts no token is the error. ``str.split`` cuts the
text once each punctuation token is spaced out. If every other piece is an
ASCII identifier, these are the tokens; else the first piece that is not
holds the stray character, first or after a leading identifier. Only
whitespace lies between pieces, so an offset seeks each from the end of the last.

Quantifier kinds are ``E`` (exists), ``E!`` (exists unique) and ``A`` (all);
an optional ``:: type`` after the bound variable restricts it. Atom arguments
are either bound variables or capitalized constants (proper names); a
lowercase argument with no binder in scope is rejected.

Canonicalization rewrites a form to a normal shape so that logically
equivalent statements compare equal: double negations are erased,
contrapositives are turned around, type-membership atoms are lifted into
quantifier restrictions (a binder takes its least membership conjunct by
printed form, outermost first, until one is left as the scope), and
conjunctions are flattened and sorted. One bottom-up walk does all of it,
rebuilding each node from parts that are already canonical and sorting a
quantifier's scope only after lifting. The walk also checks each atom it
meets: a type name still in predicate position afterwards, or an
unknown predicate, is an error, never silently kept, and only then does an
ordered walk run, to name the first such atom. :func:`pretty` and analysis
share one printer, which counts levels as the walk does and records each
text it prints from level 0 in a memo; analysis hands it one memo per call,
so each conjunct is printed once per call. :func:`alpha_equal` compares
name-free keys, printed like :func:`pretty` but with each bound variable as its
binder's level (de Bruijn) and each conjunction's items sorted, so canonical
forms equal up to renaming compare equal. The node classes come from
:mod:`ontologik.forms` and are importable from here too.
"""
from __future__ import annotations

from collections.abc import Iterator

from .errors import CanonicalizationError, LFSyntaxError, NestingError
from .forms import And, Atom, Binder, Form, Implies, Not, Quant, QuantKind, read_prefix, with_prefix
from .lexicon import Lexicon
from .ontology import Ontology


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
            flat += item.items
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

# Every token that is not punctuation is an identifier; None ends the input.
_PUNCT = frozenset(("::", "->", "(", ")", "!", ",", None))
_IDENT_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
_QUANT_KINDS = {"E": QuantKind.EXISTS, "E!": QuantKind.EXISTS_UNIQUE, "A": QuantKind.FORALL}


class _Parser:
    # Each method takes the index of its first token and returns what it read
    # with the index after it. Offsets are found only for an error.
    def __init__(self, source: str):
        toks = source.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace("!", " ! ")
        toks = toks.replace("::", " :: ").replace("->", " -> ").split()
        # three end sentinels let the parser look three tokens ahead without a bounds check
        self.source, self.toks = source, toks + [None] * 3
        if stray := [tok for tok in set(toks) - _PUNCT if not (tok.isascii() and tok.isidentifier())]:
            i, tok = min((toks.index(tok), tok) for tok in stray)  # the first piece that is no token
            at = self.at(i) + (0 if tok[0].isdigit() else len(tok) - len(tok.lstrip(_IDENT_CHARS)))
            raise LFSyntaxError(f"unexpected character '{source[at]}'", at)

    def at(self, i: int) -> int:
        end = 0
        for tok in self.toks[:i]:  # only whitespace lies between two pieces
            end = self.source.find(tok, end) + len(tok)
        return len(self.source) - len(self.source[end:].lstrip())

    def reject(self, i: int, expected: str):
        self.reject_ident(i, f"'{expected}'")

    def reject_ident(self, i: int, what: str):
        if self.toks[i] is None:
            raise LFSyntaxError(f"unexpected end of input, expected {what}", self.at(i))
        raise LFSyntaxError(f"expected {what}, got '{self.toks[i]}'", self.at(i))

    # -- grammar ---------------------------------------------------------

    def form(self, i: int, bound: set[str], depth: int) -> tuple[Form, int]:
        tok = self.toks[i]
        if tok == "(":
            return self._parenthesized(i, bound, depth)
        if tok not in _PUNCT:
            return self._atom(i, bound)
        self.reject_ident(i, "a form")

    def _parenthesized(self, i: int, bound: set[str], depth: int) -> tuple[Form, int]:
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
                item, i = self._parenthesized(i, bound, inner) if tok == "(" else self.form(i, bound, inner)
                items.append(item)
            if not items:
                raise LFSyntaxError("empty conjunction", self.at(i + 1))
            return conj(items), i + 1
        if head not in _PUNCT and toks[i + 2] == "(":
            # an atom, as a binder opens "(" ident ident or "(" "E" "!"; a unary one is read here
            arg = toks[i + 3]
            if toks[i + 4] == ")" and arg not in _PUNCT and (arg in bound or arg[0].isupper()):
                left, i = Atom(head, (arg,)), i + 5
            else:
                left, i = self._atom(i + 1, bound)
        elif self._quantifier_ahead(i):
            return self._quantifiers(i, bound, deeper(depth))
        else:
            left, i = self.form(i + 1, bound, depth + 1)
        # a grouped form or an implication
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

    def _quantifiers(self, i: int, bound: set[str], depth: int) -> tuple[Form, int]:
        # A whole prefix in one loop, so binders cost no stack frames. The
        # caller has seen the first binder; before each further one the loop
        # makes the checks that form and _parenthesized would make.
        toks, prefix = self.toks, []
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
            if var in bound:
                raise LFSyntaxError(f"'{var}' already bound in an enclosing scope", self.at(i))
            if toks[i + 1] == "::":
                i, vtype = i + 2, toks[i + 2]
                if vtype in _PUNCT:
                    self.reject_ident(i, "a type name")
            if toks[i + 1] != ")":
                self.reject(i + 1, ")")
            i += 2
            prefix.append((kind, var, vtype))
            bound.add(var)
            if toks[i] != "(" or toks[i + 1] == "and" or not self._quantifier_ahead(i):
                matrix, i = self.form(i, bound, depth)
                for _, var, _ in prefix:  # each was new to ``bound``, which is the parse's one set
                    bound.remove(var)
                return with_prefix(prefix, matrix), i

    def _atom(self, i: int, bound: set[str]) -> tuple[Form, int]:
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
    form, i = parser.form(0, set(), 0)
    if parser.toks[i] is not None:
        raise LFSyntaxError(f"trailing input '{parser.toks[i]}'", parser.at(i))
    return form


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


# bench/spans.py wraps pretty as a function of the form alone: keep it so.
def pretty(form: Form) -> str:
    """Render a form in the surface syntax. ``parse_lf(pretty(f)) == f`` when
    no binder of ``f`` shadows another in scope; such text ``parse_lf`` rejects.

    A form nested past :data:`MAX_NESTING` levels, counted as
    :func:`canonicalize` counts them, raises :class:`NestingError`; an empty
    conjunction, a non-form or a kind that is no :class:`QuantKind`,
    :class:`CanonicalizationError`."""
    return _print(form, {}, 0)


def _print(form: Form, memo: dict, depth: int) -> str:
    # The one printer. ``depth`` is the level ``form`` stands at, counted as
    # in _canon. Each text it prints from level 0, but an atom's, is recorded
    # in ``memo`` as (form, text) under ``id(form)``, holding the form so that
    # its id is not reused while the memo lives; a hit needs no check.
    if isinstance(form, Atom):
        return f"{form.pred}({', '.join(form.args)})"
    hit = memo.get(id(form))
    if hit is not None:
        return hit[1]
    if depth >= MAX_NESTING:
        raise NestingError()
    depth += 1
    if isinstance(form, Quant):
        text, f = "", form
        while isinstance(f, Quant):  # a whole prefix, without recursion
            if not isinstance(f.kind, QuantKind):
                raise CanonicalizationError(f"not a form: {f!r}")
            kind, var, vtype = f.kind._value_, f.var, f.vtype
            text += f"({kind} {var} :: {vtype})" if vtype else f"({kind} {var})"
            f = f.body
        matrix = _print(f, memo, depth)
        text += f"({matrix})" if isinstance(f, Atom) else matrix
    elif isinstance(form, And) and form.items:
        # An atom standing where a form is expected takes parentheses.
        text = "(and " + " ".join([
            f"({i.pred}({', '.join(i.args)}))" if isinstance(i, Atom) else _print(i, memo, depth)
            for i in form.items
        ]) + ")"
    elif isinstance(form, Implies):
        text = f"({_print(form.antecedent, memo, depth)} -> {_print(form.consequent, memo, depth)})"
    elif isinstance(form, Not):
        text = f"(! {_print(form.item, memo, depth)})"
    else:
        raise CanonicalizationError("empty conjunction" if isinstance(form, And) else f"not a form: {form!r}")
    if depth == 1:  # printed from level 0
        memo[id(form)] = form, text
    return text


# ----------------------------------------------------------------------
# structural walks
# ----------------------------------------------------------------------


def atoms(form: Form) -> Iterator[Atom]:
    """All atoms, left to right; :class:`CanonicalizationError` at a non-form."""
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
            case junk:
                raise CanonicalizationError(f"not a form: {junk!r}")


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------


def canonicalize(form: Form, ont: Ontology, lex: Lexicon, memo: dict | None = None) -> CanonicalForm:
    """Rewrite ``form`` to canonical shape in one bottom-up walk.

    Each node is rebuilt from canonical parts so that it stays canonical: a
    double negation cancels, ``(! a) -> (! c)`` turns around to ``c -> a``,
    and a conjunction is flattened and sorted by printed form. Under each
    quantifier prefix, every unrestricted ``E``/``E!`` binder, outermost
    first, takes its least membership conjunct ``T(x)`` by printed form as
    its restriction, until one conjunct is left as the scope; only the
    conjuncts left are sorted. Nothing is lifted across a restricted ``A``:
    its restriction may be empty, which makes the universal true whatever the
    atom says. A matrix that shrinks to a quantifier joins its prefix, and
    the binders look again. Only then may an innermost unrestricted ``A``
    take a type antecedent as its restriction.

    The walk checks each atom it meets and counts those whose predicate is a
    type name or unknown, less the ones lifted. Only when some are left does
    an ordered walk of the canonical form run, to name the first of them in a
    :class:`CanonicalizationError`.

    ``memo``, an empty dict that :func:`~ontologik.unifier.analyze` keeps for
    one call, collects the texts the printer records as the sort prints from
    level 0 (see :func:`sorted_conj`); without one, the call makes its own.

    A form nested deeper than :data:`MAX_NESTING` raises :class:`NestingError`;
    an empty conjunction, a non-form or a kind that is no :class:`QuantKind`,
    which only the API can build, raises :class:`CanonicalizationError`.
    """
    if memo is None:
        memo = {}
    bad = [0]
    cf = _canon(form, ont, lex, memo, bad)
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


def _canon(f: Form, ont: Ontology, lex: Lexicon, memo: dict, bad: list[int], depth: int = 0) -> Form:
    # ``bad[0]`` counts the atoms met whose predicate is a type name or unknown.
    if isinstance(f, Atom):
        if f.pred in ont.parent or f.pred not in lex.arg_types:
            bad[0] += 1
        return f
    if depth >= MAX_NESTING:
        raise NestingError()
    depth += 1
    if isinstance(f, Quant):
        # The matrix's canonical conjuncts go to _lift unsorted.
        prefix, matrix = read_prefix(f)
        for kind, _, _ in prefix:
            if not isinstance(kind, QuantKind):  # API-built; named by its Quant, as in _print
                while f.kind is not kind:
                    f = f.body
                raise CanonicalizationError(f"not a form: {f!r}")
        if isinstance(matrix, And) and matrix.items:  # an empty one is walked, and raises
            if depth >= MAX_NESTING:
                raise NestingError()
            items = _conjuncts(matrix.items, ont, lex, memo, bad, depth + 1)
        else:
            items = _conjuncts((matrix,), ont, lex, memo, bad, depth)
        return _lift(prefix, items, ont, memo, bad)
    if isinstance(f, And) and f.items:
        return sorted_conj(_conjuncts(f.items, ont, lex, memo, bad, depth), memo)
    if isinstance(f, Implies):
        a = _canon(f.antecedent, ont, lex, memo, bad, depth)
        c = _canon(f.consequent, ont, lex, memo, bad, depth)
        if isinstance(a, Not) and isinstance(c, Not):
            return Implies(c.item, a.item)
        return Implies(a, c)
    if isinstance(f, Not):
        inner = _canon(f.item, ont, lex, memo, bad, depth)
        return inner.item if isinstance(inner, Not) else Not(inner)
    raise CanonicalizationError("empty conjunction" if isinstance(f, And) else f"not a form: {f!r}")


def _conjuncts(items: tuple, ont: Ontology, lex: Lexicon, memo: dict, bad: list[int], depth: int) -> list[Form]:
    # The canonical conjuncts of ``items`` at ``depth``, in order: an atom is
    # checked here as _canon checks it, and a conjunction's items are spliced in.
    out: list[Form] = []
    parent, known = ont.parent, lex.arg_types
    for item in items:
        if isinstance(item, Atom):
            if item.pred in parent or item.pred not in known:
                bad[0] += 1
            out.append(item)
            continue
        item = _canon(item, ont, lex, memo, bad, depth)
        if isinstance(item, And):
            out += item.items
        else:
            out.append(item)
    return out


def sorted_conj(items: list[Form], memo: dict) -> Form:
    """The conjunction of ``items``, none of them a conjunction, sorted in place
    by printed form; a single item stands alone.

    Each item is printed from level 0 with ``memo``, so the printer reads its
    text from there or records it, unless the item is an atom."""
    items.sort(key=lambda item: _print(item, memo, 0))
    return items[0] if len(items) == 1 else And(tuple(items))


def _lift(prefix: list[Binder], items: list[Form], ont: Ontology, memo: dict, bad: list[int]) -> Form:
    # Membership lifting under one prefix, by the rules canonicalize gives,
    # over the matrix's canonical conjuncts in any order. ``matrix`` is the
    # canonical matrix of a joined prefix while nothing is taken from it.
    matrix, types = None, ont.parent
    while len(items) > 1 or isinstance(items[0], Quant):
        if len(items) == 1:  # the matrix is a quantifier: it joins the prefix
            inner, matrix = read_prefix(items[0])
            prefix += inner
            items = list(matrix.items) if isinstance(matrix, And) else [matrix]
            continue
        owner: dict[str, int | None] = {}  # variable -> its innermost binder, if that may lift
        for i in reversed(range(len(prefix))):
            kind, var, vtype = prefix[i]
            if kind is QuantKind.FORALL and vtype is not None:
                break
            owner.setdefault(var, None if kind is QuantKind.FORALL or vtype else i)
        found: dict[int, int] = {}  # binder -> its least membership conjunct
        for j, item in enumerate(items):
            if isinstance(item, Atom) and len(item.args) == 1 and item.pred in types:
                i = owner.get(item.args[0])
                if i is not None and (i not in found or item.pred < items[found[i]].pred):
                    found[i] = j  # for one variable, the least text has the least predicate
        if not found:
            break
        # one conjunct stays as the scope: if each was found, the outermost binders take theirs
        takers = found if len(found) < len(items) else sorted(found)[:-1]
        for i in takers:
            j = found[i]
            kind, var, _ = prefix[i]
            prefix[i], items[j] = (kind, var, items[j].pred), None
        bad[0] -= len(takers)
        matrix, items = None, [item for item in items if item is not None]
        if len(items) > 1:  # every binder that found a conjunct took it
            break
    if matrix is None:
        matrix = items[0] if len(items) == 1 else sorted_conj(items, memo)
    kind, var, vtype = prefix[-1]
    if kind is QuantKind.FORALL and vtype is None and isinstance(matrix, Implies):
        a = matrix.antecedent
        if isinstance(a, Atom) and len(a.args) == 1 and a.args[0] == var and a.pred in types:
            prefix[-1], matrix = (kind, var, a.pred), matrix.consequent
            bad[0] -= 1
    return with_prefix(prefix, matrix)


# ----------------------------------------------------------------------
# alpha equality
# ----------------------------------------------------------------------


def alpha_equal(a: Form, b: Form) -> bool:
    """Equality up to renaming bound variables and reordering conjuncts (``and``
    commutes), by name-free keys; raises as :func:`pretty` does, wherever the fault lies."""
    return _key(a, {}, 0, 0) == _key(b, {}, 0, 0)


def _key(form: Form, level: dict[str, int], bound: int, depth: int) -> str:
    # A bound variable's level counts the ``bound`` binders above it: len(level)
    # would not grow where an API-built binder shadows another. Every other name
    # prints as its repr, so no name can pass for a level or for other syntax.
    if isinstance(form, Atom):
        return f"{form.pred!r}({', '.join(f'#{level[x]}' if x in level else repr(x) for x in form.args)})"
    depth = deeper(depth)
    if isinstance(form, Quant):
        text, shadowed = "", []
        while isinstance(form, Quant):  # a whole prefix, without recursion
            if not isinstance(form.kind, QuantKind):
                raise CanonicalizationError(f"not a form: {form!r}")
            text += f"({form.kind._value_})" if form.vtype is None else f"({form.kind._value_} :: {form.vtype!r})"
            shadowed.append((form.var, level.get(form.var)))
            level[form.var], bound, form = bound, bound + 1, form.body
        text = f"{text}({_key(form, level, bound, depth)})"
        for var, was in reversed(shadowed):  # an API-built prefix may bind a name twice
            if was is None:
                del level[var]
            else:
                level[var] = was
        return text
    if isinstance(form, And) and form.items:
        return "(and " + " ".join(sorted([_key(i, level, bound, depth) for i in form.items])) + ")"
    if isinstance(form, Implies):
        return f"({_key(form.antecedent, level, bound, depth)} -> {_key(form.consequent, level, bound, depth)})"
    if isinstance(form, Not):
        return f"(! {_key(form.item, level, bound, depth)})"
    raise CanonicalizationError("empty conjunction" if isinstance(form, And) else f"not a form: {form!r}")
