"""Tiny integer polynomial DSL over the coordinates of 2 or 3 group arguments.

Grammar (whitespace insignificant, single-token lookahead):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := integer | var | '-' factor | '(' expr ')'
    var    := ('i' | 'j' | 'k') digits

'i'/'j'/'k' name the first/second/third group argument; the digits are a
1-based coordinate index.  Evaluation substitutes torsion coordinates as
canonical residues and free coordinates as integers, and returns a raw
integer; any modular reduction of the result belongs to the caller.

On its first evaluation an AST is flattened once into a signed sum of
products, kept on the root node: each product is an integer coefficient
(literals folded in), a tuple of (argument, coordinate) factors and a
tuple of nested sums.  A product is never distributed over a sum: a
parenthesized sum inside a product stays one nested factor.  So the flat
form has at most one product (nested ones included) per AST node and at
most one factor per variable leaf, where full expansion of k factors of
s-term sums would need up to s^k products.  Evaluation is one loop over
the products.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


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
    """Expression nests deeper than the parser and flattener can recurse."""


_ARG_NAMES = ("i", "j", "k")


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    arg: int    # 0-based argument index
    coord: int  # 1-based coordinate index


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Paren:
    inner: object


# -- parser -------------------------------------------------------------------

class _Tokens:
    def __init__(self, src: str):
        self.toks: list[tuple[str, object, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(src):
            ch = src[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch in "+-*()":
                self.toks.append((ch, ch, pos))
                pos += 1
                continue
            if ch.isdigit():
                start = pos
                while pos < len(src) and src[pos].isdigit():
                    pos += 1
                self.toks.append(("int", int(src[start:pos]), start))
                continue
            if ch in _ARG_NAMES:
                start = pos
                pos += 1
                dstart = pos
                while pos < len(src) and src[pos].isdigit():
                    pos += 1
                if pos == dstart:
                    raise ExprSyntaxError(dstart, {"digit"}, _describe(src, dstart))
                self.toks.append(
                    ("var", (_ARG_NAMES.index(ch), int(src[dstart:pos])), start)
                )
                continue
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


def parse_expr(src: str, arity: int, coords: int):
    """Parse src; validate variables against arity and coordinate count.

    The AST is flattened here too, so input nested deeper than the
    interpreter can recurse (deep parentheses, or thousands of summands,
    whose tree is as deep as the sum is long) raises ExprTooDeep."""
    if arity not in (2, 3):
        raise ArityError(f"arity must be 2 or 3, got {arity}")
    toks = _Tokens(src)
    try:
        ast = _parse_expr(toks)
        _compile(ast)
    except RecursionError:
        raise ExprTooDeep("expression nests too deeply to parse") from None
    kind, _, pos = toks.peek()
    if kind != "end":
        raise ExprSyntaxError(pos, {"+", "-", "*", "end of input"}, kind)
    _validate(ast, arity, coords)
    return ast


def _parse_expr(toks):
    node = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op, _, _ = toks.next()
        rhs = _parse_term(toks)
        node = Add(node, rhs) if op == "+" else Sub(node, rhs)
    return node


def _parse_term(toks):
    node = _parse_factor(toks)
    while toks.peek()[0] == "*":
        toks.next()
        node = Mul(node, _parse_factor(toks))
    return node


def _parse_factor(toks):
    kind, value, pos = toks.peek()
    if kind == "int":
        toks.next()
        return Lit(value)
    if kind == "var":
        toks.next()
        return Var(*value)
    if kind == "-":
        toks.next()
        return Neg(_parse_factor(toks))
    if kind == "(":
        toks.next()
        inner = _parse_expr(toks)
        k2, _, p2 = toks.peek()
        if k2 != ")":
            raise ExprSyntaxError(p2, {")"}, k2)
        toks.next()
        return Paren(inner)
    raise ExprSyntaxError(pos, {"integer", "variable", "(", "-"}, kind)


def _validate(ast, arity: int, coords: int):
    for node in _vars(ast):
        if node.arg >= arity:
            raise ArityError(
                f"variable {_ARG_NAMES[node.arg]}{node.coord} needs arity {node.arg + 1}"
            )
        if not 1 <= node.coord <= coords:
            raise CoordOutOfRange(
                f"coordinate {node.coord} out of range 1..{coords}"
            )


def _vars(ast):
    """The variable leaves of an AST, left to right; no recursion, so
    leaf_counts works on any tree parse_expr accepted."""
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            yield node
        elif isinstance(node, (Add, Sub, Mul)):
            stack += (node.right, node.left)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Paren):
            stack.append(node.inner)


def leaf_counts(ast) -> Counter:
    """Variable leaves per (0-based argument, 1-based coordinate): a bound
    on the degree of the expression in that variable."""
    return Counter((v.arg, v.coord) for v in _vars(ast))


# -- evaluation -----------------------------------------------------------------

def eval_expr(ast, args) -> int:
    """Evaluate at a tuple of group-element coordinate tuples."""
    try:
        need, terms = ast._flat
    except AttributeError:
        need, terms = _compile(ast)
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


def _compile(ast):
    """(arguments needed, flat sum) of an AST; kept on the root node."""
    terms, need = _flatten(ast)
    out = (need, tuple(terms))
    object.__setattr__(ast, "_flat", out)
    return out


# A sum under construction is a list of products (coefficient, factors,
# nested sums), each factor an (argument, 0-based coordinate) pair.

def _flatten(node):
    """(products, arguments needed) of a subtree."""
    if isinstance(node, Var):
        return [(1, ((node.arg, node.coord - 1),), ())], node.arg + 1
    if isinstance(node, Lit):
        return ([(node.value, (), ())] if node.value else []), 0
    if isinstance(node, Neg):
        terms, need = _flatten(node.operand)
        return [(-c, f, s) for c, f, s in terms], need
    if isinstance(node, Paren):
        return _flatten(node.inner)
    if not isinstance(node, (Add, Sub, Mul)):
        raise TypeError(f"not an AST node: {node!r}")
    left, need = _flatten(node.left)
    right, need_right = _flatten(node.right)
    need = max(need, need_right)
    if isinstance(node, Add):
        left += right
        return left, need
    if isinstance(node, Sub):
        left += [(-c, f, s) for c, f, s in right]
        return left, need
    if not left or not right:
        return [], need
    cl, fl, sl = _as_product(left)
    cr, fr, sr = _as_product(right)
    return [(cl * cr, fl + fr, sl + sr)], need


def _as_product(terms):
    """The one product of a one-product sum, else the sum as a nested factor."""
    return terms[0] if len(terms) == 1 else (1, (), (tuple(terms),))


# -- rendering --------------------------------------------------------------------

def render_expr(ast) -> str:
    if isinstance(ast, Lit):
        return str(ast.value)
    if isinstance(ast, Var):
        return f"{_ARG_NAMES[ast.arg]}{ast.coord}"
    if isinstance(ast, Add):
        return f"{render_expr(ast.left)} + {render_expr(ast.right)}"
    if isinstance(ast, Sub):
        return f"{render_expr(ast.left)} - {render_expr(ast.right)}"
    if isinstance(ast, Mul):
        return f"{render_expr(ast.left)}*{render_expr(ast.right)}"
    if isinstance(ast, Neg):
        return f"-{render_expr(ast.operand)}"
    if isinstance(ast, Paren):
        return f"({render_expr(ast.inner)})"
    raise TypeError(f"not an AST node: {ast!r}")
