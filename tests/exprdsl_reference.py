"""The expression AST that exprdsl parsed into before it built the sum of
products directly, kept as the reference: seven node classes, a recursive
interpreter, the variable leaves and the DSL text of a tree.

`random_expr` draws trees shaped like the grammar (a sum's right operand
is a term, a product's a factor), so `render` gives text that parses back
to the same tree.  `from_text` reads DSL text into these nodes through
Python's own expression parser, which has the same precedence and
associativity for + - * and unary minus; nothing is executed.
"""

import ast as pyast
from collections import Counter
from dataclasses import dataclass


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


_ARG_NAMES = ("i", "j", "k")


def evaluate(node, args) -> int:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return args[node.arg][node.coord - 1]
    if isinstance(node, Add):
        return evaluate(node.left, args) + evaluate(node.right, args)
    if isinstance(node, Sub):
        return evaluate(node.left, args) - evaluate(node.right, args)
    if isinstance(node, Mul):
        return evaluate(node.left, args) * evaluate(node.right, args)
    if isinstance(node, Neg):
        return -evaluate(node.operand, args)
    if isinstance(node, Paren):
        return evaluate(node.inner, args)
    raise TypeError(f"not an AST node: {node!r}")


def leaves(node) -> Counter:
    """Variable leaves per (0-based argument, 1-based coordinate)."""
    if isinstance(node, Var):
        return Counter({(node.arg, node.coord): 1})
    if isinstance(node, (Add, Sub, Mul)):
        return leaves(node.left) + leaves(node.right)
    if isinstance(node, Neg):
        return leaves(node.operand)
    if isinstance(node, Paren):
        return leaves(node.inner)
    return Counter()


def nodes(node) -> int:
    if isinstance(node, (Add, Sub, Mul)):
        return 1 + nodes(node.left) + nodes(node.right)
    if isinstance(node, Neg):
        return 1 + nodes(node.operand)
    if isinstance(node, Paren):
        return 1 + nodes(node.inner)
    return 1


def render(node) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return f"{_ARG_NAMES[node.arg]}{node.coord}"
    if isinstance(node, Add):
        return f"{render(node.left)} + {render(node.right)}"
    if isinstance(node, Sub):
        return f"{render(node.left)} - {render(node.right)}"
    if isinstance(node, Mul):
        return f"{render(node.left)}*{render(node.right)}"
    if isinstance(node, Neg):
        return f"-{render(node.operand)}"
    if isinstance(node, Paren):
        return f"({render(node.inner)})"
    raise TypeError(f"not an AST node: {node!r}")


_BINOPS = {pyast.Add: Add, pyast.Sub: Sub, pyast.Mult: Mul}


def from_text(src: str):
    """The reference tree of DSL text (parentheses are not kept as nodes)."""

    def build(node):
        if isinstance(node, pyast.Constant) and type(node.value) is int:
            return Lit(node.value)
        if isinstance(node, pyast.Name):
            return Var(_ARG_NAMES.index(node.id[0]), int(node.id[1:]))
        if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.USub):
            return Neg(build(node.operand))
        if isinstance(node, pyast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](build(node.left), build(node.right))
        raise ValueError(f"not DSL text: {pyast.dump(node)}")

    return build(pyast.parse(src, mode="eval").body)


def _random_factor(rng, depth, arity):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        if rng.random() < 0.5:
            return Lit(rng.randint(0, 9))
        return Var(rng.randrange(arity), rng.randint(1, 3))
    if roll < 0.6:
        return Neg(_random_factor(rng, depth - 1, arity))
    return Paren(random_expr(rng, depth - 1, arity))


def _random_term(rng, depth, arity):
    node = _random_factor(rng, depth, arity)
    for _ in range(rng.randint(0, 2)):
        node = Mul(node, _random_factor(rng, depth, arity))
    return node


def random_expr(rng, depth, arity=2):
    """A random grammar-shaped tree over `arity` arguments of 3 coordinates."""
    node = _random_term(rng, depth, arity)
    for _ in range(rng.randint(0, 2)):
        nxt = _random_term(rng, depth, arity)
        node = Add(node, nxt) if rng.random() < 0.5 else Sub(node, nxt)
    return node
