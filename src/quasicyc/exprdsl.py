"""Tiny integer polynomial DSL over the coordinates of 2 or 3 group arguments.

Grammar (whitespace insignificant, single-token lookahead):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := integer | var | '-' factor | '(' expr ')'
    var    := ('i' | 'j' | 'k') digits

Digits are the ASCII digits 0-9 only.  'i'/'j'/'k' name the first/second/
third group argument; the digits are a 1-based coordinate index.
Evaluation substitutes torsion coordinates as canonical residues and free
coordinates as integers, and returns a raw integer; any modular reduction
of the result belongs to the caller.

The parser builds the evaluation form directly: a signed sum of products,
each an integer coefficient (literals folded in), a tuple of (argument,
0-based coordinate) factors and a tuple of nested sums.  A term multiplies
its factors into one product.  A factor that is a sum of several products
stays one nested sum and is never distributed over, so the form has at
most one product per term of the text and one factor per variable leaf,
where full expansion of k factors of s-term sums would need up to s^k
products.  Sums, products and signs are built by loops, so only
parentheses nest.  Evaluation is one loop over the products.

The argument count an expression needs, the arity and coordinate checks
and leaf_counts are read from the variable tokens, so a variable in a
product that vanishes (0*k1, k1 - k1) still counts.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple


class ExprSyntaxError(ValueError):
    def __init__(self, position: int, expected: set[str], found: str):
        self.position = position
        self.expected = set(expected)
        self.found = found
        super().__init__(
            f"at offset {position}: expected {' or '.join(sorted(expected))}, found {found}"
        )


class ArityError(ValueError):
    """Variable refers to an argument beyond the expression's arity."""


class CoordOutOfRange(ValueError):
    """Variable coordinate index exceeds the group's coordinate count."""


class ExprTooDeep(ValueError):
    """Parentheses nest deeper than the parser can recurse."""


_ARG_NAMES = ("i", "j", "k")


class Expr(NamedTuple):
    """A parsed expression: the number of arguments it needs, its sum of
    products, and its variable leaves as (0-based argument, 1-based
    coordinate) pairs, left to right."""

    need: int
    terms: tuple
    leaves: tuple


# -- parser -------------------------------------------------------------------

def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


class _Tokens:
    def __init__(self, src: str):
        self.toks: list[tuple[str, object, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(src):
            ch = src[pos]
            if ch.isspace():
                pos += 1
            elif ch in "+-*()":
                self.toks.append((ch, ch, pos))
                pos += 1
            elif _is_digit(ch):
                start = pos
                while pos < len(src) and _is_digit(src[pos]):
                    pos += 1
                self.toks.append(("int", int(src[start:pos]), start))
            elif ch in _ARG_NAMES:
                start = pos
                pos += 1
                dstart = pos
                while pos < len(src) and _is_digit(src[pos]):
                    pos += 1
                if pos == dstart:
                    raise ExprSyntaxError(dstart, {"digit"}, _describe(src, dstart))
                self.toks.append(
                    ("var", (_ARG_NAMES.index(ch), int(src[dstart:pos])), start)
                )
            else:
                raise ExprSyntaxError(pos, {"integer", "variable", "(", "-"}, repr(ch))
        self.toks.append(("end", None, len(src)))
        self.idx = 0

    def peek(self):
        return self.toks[self.idx]

    def next(self):
        t = self.toks[self.idx]
        self.idx += 1
        return t


def _describe(src: str, pos: int) -> str:
    return repr(src[pos]) if pos < len(src) else "end of input"


def parse_expr(src: str, arity: int, coords: int) -> Expr:
    """Parse src to its evaluation form; validate variables against arity
    and coordinate count.  Parentheses nested deeper than the interpreter
    can recurse raise ExprTooDeep."""
    if arity not in (2, 3):
        raise ArityError(f"arity must be 2 or 3, got {arity}")
    toks = _Tokens(src)
    try:
        terms = _parse_sum(toks)
    except RecursionError:
        raise ExprTooDeep("expression nests too deeply to parse") from None
    kind, _, pos = toks.peek()
    if kind != "end":
        raise ExprSyntaxError(pos, {"+", "-", "*", "end of input"}, kind)
    leaves = tuple(value for kind, value, _ in toks.toks if kind == "var")
    for arg, coord in leaves:
        if arg >= arity:
            raise ArityError(f"variable {_ARG_NAMES[arg]}{coord} needs arity {arg + 1}")
        if not 1 <= coord <= coords:
            raise CoordOutOfRange(f"coordinate {coord} out of range 1..{coords}")
    return Expr(max((arg + 1 for arg, _ in leaves), default=0), terms, leaves)


def _parse_sum(toks) -> tuple:
    terms = list(_parse_term(toks))
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        right = _parse_term(toks)
        terms += right if op == "+" else _negated(right)
    return tuple(terms)


def _parse_term(toks) -> tuple:
    """A lone factor's products, or the one product of several factors
    (none if a factor is zero)."""
    parts = [_parse_factor(toks)]
    while toks.peek()[0] == "*":
        toks.next()
        parts.append(_parse_factor(toks))
    if len(parts) == 1:
        return parts[0]
    if not all(parts):
        return ()
    c, factors, sums = 1, [], []
    for part in parts:
        if len(part) == 1:
            pc, pf, ps = part[0]
            c *= pc
            factors += pf
            sums += ps
        else:
            sums.append(part)
    return ((c, tuple(factors), tuple(sums)),)


def _parse_factor(toks) -> tuple:
    negate = False
    while toks.peek()[0] == "-":
        toks.next()
        negate = not negate
    kind, value, pos = toks.next()
    if kind == "int":
        terms = ((value, (), ()),) if value else ()
    elif kind == "var":
        arg, coord = value
        terms = ((1, ((arg, coord - 1),), ()),)
    elif kind == "(":
        terms = _parse_sum(toks)
        kind, _, pos = toks.next()
        if kind != ")":
            raise ExprSyntaxError(pos, {")"}, kind)
    else:
        raise ExprSyntaxError(pos, {"integer", "variable", "(", "-"}, kind)
    return _negated(terms) if negate else terms


def _negated(terms) -> tuple:
    return tuple((-c, f, s) for c, f, s in terms)


def leaf_counts(expr: Expr) -> Counter:
    """Variable leaves per (0-based argument, 1-based coordinate): a bound
    on the degree of the expression in that variable."""
    return Counter(expr.leaves)


# -- evaluation -----------------------------------------------------------------

def eval_expr(expr: Expr, args) -> int:
    """Evaluate at a tuple of group-element coordinate tuples."""
    need, terms, _ = expr
    if need > len(args):
        raise ArityError(f"expression needs {need} arguments, got {len(args)}")
    return _eval_sum(terms, args)


def _eval_sum(terms, args) -> int:
    total = 0
    for c, factors, sums in terms:
        for a, i in factors:
            c *= args[a][i]
        for s in sums:
            c *= _eval_sum(s, args)
        total += c
    return total
