"""Linear temporal logic: syntax tree, parser, normal form, lasso semantics.

The semantic evaluator works directly on ultimately periodic words and serves
as the independent oracle against which the automaton translation is checked.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

ATOM = "atom"
TRUE = "true"
FALSE = "false"
NOT = "not"
AND = "and"
OR = "or"
NEXT = "next"
UNTIL = "until"
RELEASE = "release"
EVENTUALLY = "eventually"
ALWAYS = "always"

_ARITY = {
    ATOM: 0,
    TRUE: 0,
    FALSE: 0,
    NOT: 1,
    NEXT: 1,
    EVENTUALLY: 1,
    ALWAYS: 1,
    AND: 2,
    OR: 2,
    UNTIL: 2,
    RELEASE: 2,
}


@dataclass(frozen=True)
class Formula:
    """Immutable syntax tree node.

    The hash is the one the dataclass would generate, computed on first use
    and then kept in `_hash`: a node's hash reads its children's kept
    hashes, so no hash walks a whole subtree twice.
    """

    kind: str
    children: tuple = ()
    name: str = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown formula kind {self.kind!r}")
        if len(self.children) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} expects {_ARITY[self.kind]} children")
        if self.kind == ATOM and not self.name:
            raise ValueError("atom needs a nonempty name")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first use: parsing alone never pays for it
            h = hash((self.kind, self.children, self.name))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self):
        return formula_text(self)


def atom(name: str) -> Formula:
    return Formula(ATOM, name=name)


TRUE_F = Formula(TRUE)
FALSE_F = Formula(FALSE)


def lnot(f: Formula) -> Formula:
    return Formula(NOT, (f,))


def land(a: Formula, b: Formula) -> Formula:
    return Formula(AND, (a, b))


def lor(a: Formula, b: Formula) -> Formula:
    return Formula(OR, (a, b))


def lnext(f: Formula) -> Formula:
    return Formula(NEXT, (f,))


def until(a: Formula, b: Formula) -> Formula:
    return Formula(UNTIL, (a, b))


def release(a: Formula, b: Formula) -> Formula:
    return Formula(RELEASE, (a, b))


def eventually(f: Formula) -> Formula:
    return Formula(EVENTUALLY, (f,))


def always(f: Formula) -> Formula:
    return Formula(ALWAYS, (f,))


_UNARY_TEXT = {NOT: "!", NEXT: "X ", EVENTUALLY: "F ", ALWAYS: "G "}
_BINARY_TEXT = {AND: "&&", OR: "||", UNTIL: "U", RELEASE: "R"}


def formula_text(f: Formula) -> str:
    if f.kind == ATOM:
        return f.name
    if f.kind in (TRUE, FALSE):
        return f.kind
    if f.kind in _UNARY_TEXT:
        child = formula_text(f.children[0])
        if f.children[0].kind in _ARITY and _ARITY[f.children[0].kind] == 2:
            child = f"({child})"
        return _UNARY_TEXT[f.kind] + child
    a, b = (formula_text(c) for c in f.children)
    return f"({a} {_BINARY_TEXT[f.kind]} {b})"


def atoms_of(f: Formula) -> frozenset:
    found = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == ATOM:
            found.add(g.name)
        stack.extend(g.children)
    return frozenset(found)


def contains_next(f: Formula) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == NEXT:
            return True
        stack.extend(g.children)
    return False


class LtlSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class UnknownAtomError(LtlSyntaxError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown atom {name!r}", position)
        self.atom = name


_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<and>&&)|(?P<or>\|\|)"
    r"|(?P<not>!)|(?P<lpar>\()|(?P<rpar>\)))"
)
_KEYWORDS = {"true", "false", "X", "U", "F", "G"}
MAX_NESTING = 64  # parentheses, and operators on any root-to-leaf path


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise LtlSyntaxError(f"unexpected character {text[where]!r}", where)
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; precedence unary > U > && > ||, U right-associative."""

    def __init__(self, text: str, alphabet):
        self.tokens = _tokenize(text)
        self.alphabet = None if alphabet is None else set(alphabet)
        self.i = 0
        self.open_parens = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_or()
        kind, value, pos = self.peek()
        if kind != "end":
            raise LtlSyntaxError(f"unexpected {value!r}", pos)
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek()[0] == "or":
            self.take()
            f = lor(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_until()
        while self.peek()[0] == "and":
            self.take()
            f = land(f, self.parse_until())
        return f

    def parse_until(self) -> Formula:
        f = self.parse_unary()
        kind, value, _ = self.peek()
        if kind == "ident" and value == "U":
            self.take()
            return until(f, self.parse_until())
        return f

    def parse_unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "not":
            self.take()
            return lnot(self.parse_unary())
        if kind == "ident" and value in ("X", "F", "G"):
            self.take()
            child = self.parse_unary()
            return {"X": lnext, "F": eventually, "G": always}[value](child)
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "lpar":
            self.open_parens += 1
            if self.open_parens > MAX_NESTING:
                raise LtlSyntaxError(f"more than {MAX_NESTING} nested parentheses", pos)
            f = self.parse_or()
            k2, v2, p2 = self.take()
            if k2 != "rpar":
                raise LtlSyntaxError("expected ')'", p2)
            self.open_parens -= 1
            return f
        if kind == "ident":
            if value == "true":
                return TRUE_F
            if value == "false":
                return FALSE_F
            if value in _KEYWORDS:
                raise LtlSyntaxError(f"operator {value!r} needs an operand", pos)
            if self.alphabet is not None and value not in self.alphabet:
                raise UnknownAtomError(value, pos)
            return atom(value)
        raise LtlSyntaxError(f"expected a formula, found {value!r}" if value else "unexpected end of input", pos)


def parse(text: str, alphabet=None) -> Formula:
    """Parse ASCII syntax: atoms, !, &&, ||, X, U, F, G, true, false.

    When `alphabet` is given, every atom must be a member of it.  Formulas
    nested deeper than MAX_NESTING are refused, since the recursive passes
    over a formula (normal form, translation, evaluation) would overflow the
    stack on them.
    """
    parser = _Parser(text, alphabet)
    try:
        f = parser.parse()
    except RecursionError:
        raise LtlSyntaxError("formula nested too deeply", 0) from None
    # every operator on a path is a token of its own
    if len(parser.tokens) > MAX_NESTING and _depth(f) > MAX_NESTING:
        raise LtlSyntaxError(f"more than {MAX_NESTING} nested operators", 0)
    return f


def _depth(f: Formula) -> int:
    """Operators on the longest root-to-leaf path, counted level by level
    rather than by recursion."""
    level, depth = f.children, 0
    while level:
        depth += 1
        level = [c for g in level for c in g.children]
    return depth


def to_nnf(f: Formula) -> Formula:
    """Push negations onto atoms; duals introduce the release operator."""
    if f.kind == NOT:
        g = f.children[0]
        if g.kind == TRUE:
            return FALSE_F
        if g.kind == FALSE:
            return TRUE_F
        if g.kind == ATOM:
            return f
        if g.kind == NOT:
            return to_nnf(g.children[0])
        if g.kind == AND:
            return lor(to_nnf(lnot(g.children[0])), to_nnf(lnot(g.children[1])))
        if g.kind == OR:
            return land(to_nnf(lnot(g.children[0])), to_nnf(lnot(g.children[1])))
        if g.kind == NEXT:
            return lnext(to_nnf(lnot(g.children[0])))
        if g.kind == UNTIL:
            return release(to_nnf(lnot(g.children[0])), to_nnf(lnot(g.children[1])))
        if g.kind == RELEASE:
            return until(to_nnf(lnot(g.children[0])), to_nnf(lnot(g.children[1])))
        if g.kind == EVENTUALLY:
            return always(to_nnf(lnot(g.children[0])))
        if g.kind == ALWAYS:
            return eventually(to_nnf(lnot(g.children[0])))
    if f.children:
        return Formula(f.kind, tuple(to_nnf(c) for c in f.children), f.name)
    return f


@dataclass(frozen=True)
class UltimatelyPeriodicWord:
    """Infinite word prefix . period^omega; symbols are frozensets of names."""

    prefix: tuple
    period: tuple

    def __post_init__(self):
        if len(self.period) < 1:
            raise ValueError("period must be nonempty")

    def symbol(self, i: int):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]


def word(prefix, period) -> UltimatelyPeriodicWord:
    return UltimatelyPeriodicWord(
        tuple(frozenset(s) for s in prefix), tuple(frozenset(s) for s in period)
    )


def eval_ltl(f: Formula, w: UltimatelyPeriodicWord) -> bool:
    """Fixpoint evaluation of `f` over the folded positions of `w`.

    Each subformula gets a truth vector over |prefix|+|period| positions with
    the last position wrapping into the period; least fixpoints serve until
    and eventually, greatest fixpoints serve always and release.
    """
    symbols = list(w.prefix) + list(w.period)
    n = len(symbols)
    succ = list(range(1, n)) + [len(w.prefix)]
    cache = {}

    def sweep(update, init):
        v = [init] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                nv = update(i, v)
                if nv != v[i]:
                    v[i] = nv
                    changed = True
        return v

    def vals(g: Formula):
        if g in cache:
            return cache[g]
        k = g.kind
        if k == ATOM:
            v = [g.name in symbols[i] for i in range(n)]
        elif k == TRUE:
            v = [True] * n
        elif k == FALSE:
            v = [False] * n
        elif k == NOT:
            c = vals(g.children[0])
            v = [not x for x in c]
        elif k == AND:
            a, b = vals(g.children[0]), vals(g.children[1])
            v = [x and y for x, y in zip(a, b)]
        elif k == OR:
            a, b = vals(g.children[0]), vals(g.children[1])
            v = [x or y for x, y in zip(a, b)]
        elif k == NEXT:
            c = vals(g.children[0])
            v = [c[succ[i]] for i in range(n)]
        elif k == UNTIL:
            a, b = vals(g.children[0]), vals(g.children[1])
            v = sweep(lambda i, v: b[i] or (a[i] and v[succ[i]]), False)
        elif k == EVENTUALLY:
            c = vals(g.children[0])
            v = sweep(lambda i, v: c[i] or v[succ[i]], False)
        elif k == ALWAYS:
            c = vals(g.children[0])
            v = sweep(lambda i, v: c[i] and v[succ[i]], True)
        elif k == RELEASE:
            a, b = vals(g.children[0]), vals(g.children[1])
            v = sweep(lambda i, v: b[i] and (a[i] or v[succ[i]]), True)
        else:
            raise ValueError(k)
        cache[g] = v
        return v

    return vals(f)[0]
