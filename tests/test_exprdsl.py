"""Expression DSL: grammar, errors, evaluation, round-trip."""

import random

import pytest

from quasicyc.exprdsl import (
    Add,
    ArityError,
    CoordOutOfRange,
    ExprSyntaxError,
    Lit,
    Mul,
    Neg,
    Paren,
    Sub,
    Var,
    eval_expr,
    parse_expr,
    render_expr,
)
from quasicyc.exprdsl import _compile

OCTONION_EXPR = "i1*(j1+j2+j3)+i2*(j2+j3)+i3*j3+j1*i2*i3+i1*j2*i3+i1*i2*j3"


def test_parse_basic_shapes():
    assert parse_expr("i2*j1", 2, 2) == Mul(Var(0, 2), Var(1, 1))
    assert parse_expr("1+2-3", 2, 1) == Sub(Add(Lit(1), Lit(2)), Lit(3))
    assert parse_expr("-i1", 2, 1) == Neg(Var(0, 1))
    assert parse_expr("(i1+j1)*k1", 3, 1) == Mul(Paren(Add(Var(0, 1), Var(1, 1))), Var(2, 1))
    assert parse_expr("  i1 * j1  ", 2, 1) == Mul(Var(0, 1), Var(1, 1))


def test_parse_full_octonion_exponent():
    ast = parse_expr(OCTONION_EXPR, 2, 3)
    assert eval_expr(ast, ((1, 0, 0), (1, 0, 0))) == 1


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("i1+", 2, 1)
    assert e.value.position == 3
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("i1 j1", 2, 1)
    assert e.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse_expr("(i1", 2, 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("i", 2, 1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1", 2, 1)


def test_arity_and_coord_errors():
    with pytest.raises(ArityError):
        parse_expr("k1", 2, 3)
    with pytest.raises(CoordOutOfRange):
        parse_expr("i4", 2, 3)
    with pytest.raises(CoordOutOfRange):
        parse_expr("j0", 2, 3)
    with pytest.raises(ArityError):
        parse_expr("i1", 4, 3)


def test_eval_examples():
    ast = parse_expr("i2*j1", 2, 2)
    assert eval_expr(ast, ((0, 1), (1, 0))) == 1
    assert eval_expr(ast, ((0, 0), (0, 0))) == 0
    oct_ast = parse_expr(OCTONION_EXPR, 2, 3)
    assert eval_expr(oct_ast, ((0, 0, 0), (0, 0, 0))) == 0
    torus = parse_expr("i2*j1", 2, 2)
    assert eval_expr(torus, ((-1, -1), (1, 0))) == -1


def _gen_factor(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return Lit(rng.randint(0, 9)) if rng.random() < 0.5 else Var(
            rng.randint(0, 1), rng.randint(1, 3)
        )
    if roll < 0.6:
        return Neg(_gen_factor(rng, depth - 1))
    return Paren(_gen_expr(rng, depth - 1))


def _gen_term(rng, depth):
    node = _gen_factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        node = Mul(node, _gen_factor(rng, depth))
    return node


def _gen_expr(rng, depth):
    node = _gen_term(rng, depth)
    for _ in range(rng.randint(0, 2)):
        nxt = _gen_term(rng, depth)
        node = Add(node, nxt) if rng.random() < 0.5 else Sub(node, nxt)
    return node


def test_parse_render_round_trip_200():
    rng = random.Random(7)
    for _ in range(200):
        ast = _gen_expr(rng, 3)
        assert parse_expr(render_expr(ast), 2, 3) == ast


def test_eval_additive_in_subtrees():
    rng = random.Random(11)
    args = ((2, -1, 3), (0, 4, -2))
    for _ in range(100):
        a, b = _gen_expr(rng, 2), _gen_expr(rng, 2)
        assert eval_expr(Add(a, b), args) == eval_expr(a, args) + eval_expr(b, args)
        assert eval_expr(Sub(a, b), args) == eval_expr(a, args) - eval_expr(b, args)


# -- flat evaluation against the recursive reference interpreter -------------------

def ref_eval(ast, args) -> int:
    if isinstance(ast, Lit):
        return ast.value
    if isinstance(ast, Var):
        if ast.arg >= len(args):
            raise ArityError(f"expression needs {ast.arg + 1} arguments, got {len(args)}")
        return args[ast.arg][ast.coord - 1]
    if isinstance(ast, Add):
        return ref_eval(ast.left, args) + ref_eval(ast.right, args)
    if isinstance(ast, Sub):
        return ref_eval(ast.left, args) - ref_eval(ast.right, args)
    if isinstance(ast, Mul):
        return ref_eval(ast.left, args) * ref_eval(ast.right, args)
    if isinstance(ast, Neg):
        return -ref_eval(ast.operand, args)
    if isinstance(ast, Paren):
        return ref_eval(ast.inner, args)
    raise TypeError(f"not an AST node: {ast!r}")


def _nodes(ast) -> int:
    if isinstance(ast, (Add, Sub, Mul)):
        return 1 + _nodes(ast.left) + _nodes(ast.right)
    if isinstance(ast, Neg):
        return 1 + _nodes(ast.operand)
    if isinstance(ast, Paren):
        return 1 + _nodes(ast.inner)
    return 1


def _var_leaves(ast) -> int:
    if isinstance(ast, (Add, Sub, Mul)):
        return _var_leaves(ast.left) + _var_leaves(ast.right)
    if isinstance(ast, Neg):
        return _var_leaves(ast.operand)
    if isinstance(ast, Paren):
        return _var_leaves(ast.inner)
    return int(isinstance(ast, Var))


def _flat_size(terms):
    """(products, variable factors) of a flat sum, nested sums included."""
    products = len(terms)
    factors = sum(len(f) for _, f, _ in terms)
    for _, _, sums in terms:
        for s in sums:
            p, f = _flat_size(s)
            products, factors = products + p, factors + f
    return products, factors


def test_flat_eval_matches_reference():
    rng = random.Random(23)
    for _ in range(300):
        ast = _gen_expr(rng, 3)
        for _ in range(4):
            args = tuple(
                tuple(rng.randint(-7, 7) for _ in range(3)) for _ in range(2)
            )
            assert eval_expr(ast, args) == ref_eval(ast, args)
        products, factors = _flat_size(_compile(ast)[1])
        assert products <= _nodes(ast)
        assert factors <= _var_leaves(ast)


def test_flat_eval_matches_reference_on_parsed_text():
    rng = random.Random(5)
    sources = [
        OCTONION_EXPR,
        "i2*j1",
        "i1*j2 - i2*j1 + 2*i1*j1",
        "i1*j1 - j1*i1",
        "0*(i1+j1) + 3*(i1-i1)",
        "-(i1 - 2*(j2 + -i3))*(k1 + 1)*(k2 - j3)",
        "(i1+i2)*(j1+j2) - (j1+j2)*(i1+i2) + i3",
    ]
    for src in sources:
        ast = parse_expr(src, 3, 3)
        for _ in range(50):
            args = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
            assert eval_expr(ast, args) == ref_eval(ast, args)


def test_flat_eval_errors():
    ast = parse_expr("i1 + k2", 3, 2)
    with pytest.raises(ArityError):
        eval_expr(ast, ((1, 2), (3, 4)))
    with pytest.raises(ArityError):
        ref_eval(ast, ((1, 2), (3, 4)))
    cancelled = parse_expr("k1 - k1", 3, 1)
    with pytest.raises(ArityError):
        eval_expr(cancelled, ((1,), (2,)))
    assert eval_expr(cancelled, ((1,), (2,), (3,))) == 0
    for bad in (7, "i1", None, Add(Lit(1), "x")):
        with pytest.raises(TypeError):
            eval_expr(bad, ((1,), (2,)))


def test_flat_form_stays_linear_in_the_ast():
    src = "*".join(["(i1+i2+i3+j1+j2+j3+1)"] * 8)
    ast = parse_expr(src, 2, 3)
    products, factors = _flat_size(_compile(ast)[1])
    assert products + factors <= _nodes(ast)
    args = ((1, -2, 3), (0, 5, -1))
    assert eval_expr(ast, args) == ref_eval(ast, args) == 7 ** 8


def test_flat_form_leaves_ast_equality():
    ast = parse_expr(OCTONION_EXPR, 2, 3)
    twin = parse_expr(OCTONION_EXPR, 2, 3)
    eval_expr(ast, ((1, 0, 1), (0, 1, 1)))
    assert ast == twin and hash(ast) == hash(twin) and repr(ast) == repr(twin)
