"""Expression DSL: grammar, errors, evaluation, and agreement with the
reference AST of tests/exprdsl_reference.py on rendered text."""

import random

import pytest

import exprdsl_reference as ref
from exprdsl_reference import Add, Lit, Mul, Paren, Sub, Var
from quasicyc.exprdsl import (
    ArityError,
    CoordOutOfRange,
    ExprSyntaxError,
    ExprTooDeep,
    eval_expr,
    leaf_counts,
    parse_expr,
)

OCTONION_EXPR = "i1*(j1+j2+j3)+i2*(j2+j3)+i3*j3+j1*i2*i3+i1*j2*i3+i1*i2*j3"


def value(src, args=((5, 7), (11, 13), (17, 19))):
    return eval_expr(parse_expr(src, 3, 2), args)


def test_parse_basic_shapes():
    # precedence and associativity, read off values
    assert value("1+2-3") == 0
    assert value("2-3-4") == -5
    assert value("2*3+4") == 10
    assert value("2+3*4") == 14
    assert value("-2*3") == -6
    assert value("(1+2)*3") == 9
    assert value("-(1+2)") == -3
    assert value("2*-(1-i1)*3") == 24
    assert value("--i1") == 5
    assert value("i2*j1") == 77
    assert value("(i1+j1)*k1") == 16 * 17
    assert value("  i1 * j1  ") == 55


def test_parse_full_octonion_exponent():
    expr = parse_expr(OCTONION_EXPR, 2, 3)
    assert eval_expr(expr, ((1, 0, 0), (1, 0, 0))) == 1


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


@pytest.mark.parametrize("src, position, found", [
    ("i1*j²", 4, "'²'"),
    ("i1*j١", 4, "'١'"),   # Arabic-Indic one: str.isdigit() holds for it
    ("i1+١", 3, "'١'"),
    ("i1+1٢", 4, "'٢'"),
])
def test_digits_are_ascii(src, position, found):
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr(src, 2, 1)
    assert (e.value.position, e.value.found) == (position, found)


def test_arity_and_coord_errors():
    with pytest.raises(ArityError):
        parse_expr("k1", 2, 3)
    with pytest.raises(ArityError):
        parse_expr("0*k1", 2, 3)
    with pytest.raises(CoordOutOfRange):
        parse_expr("i4", 2, 3)
    with pytest.raises(CoordOutOfRange):
        parse_expr("j0", 2, 3)
    with pytest.raises(ArityError):
        parse_expr("i1", 4, 3)


def test_eval_examples():
    expr = parse_expr("i2*j1", 2, 2)
    assert eval_expr(expr, ((0, 1), (1, 0))) == 1
    assert eval_expr(expr, ((0, 0), (0, 0))) == 0
    oct_expr = parse_expr(OCTONION_EXPR, 2, 3)
    assert eval_expr(oct_expr, ((0, 0, 0), (0, 0, 0))) == 0
    torus = parse_expr("i2*j1", 2, 2)
    assert eval_expr(torus, ((-1, -1), (1, 0))) == -1


def _points(rng, count, arity=3):
    return [
        tuple(tuple(rng.randint(-7, 7) for _ in range(3)) for _ in range(arity))
        for _ in range(count)
    ]


def test_parse_render_round_trip_200():
    # the rendered text of a reference tree keeps its variables: the same
    # leaf counts, and the same arguments needed
    rng = random.Random(7)
    for _ in range(200):
        tree = ref.random_expr(rng, 3, arity=3)
        expr = parse_expr(ref.render(tree), 3, 3)
        assert leaf_counts(expr) == ref.leaves(tree)
        need = max((arg + 1 for arg, _ in ref.leaves(tree)), default=0)
        assert expr.need == need
        if need:
            with pytest.raises(ArityError):
                eval_expr(expr, _points(rng, 1)[0][: need - 1])


def test_eval_additive_in_subtrees():
    rng = random.Random(11)
    args = ((2, -1, 3), (0, 4, -2))
    for _ in range(100):
        a, b = ref.random_expr(rng, 2), ref.random_expr(rng, 2)
        va = eval_expr(parse_expr(ref.render(a), 2, 3), args)
        vb = eval_expr(parse_expr(ref.render(b), 2, 3), args)
        for op, v in ((Add, va + vb), (Sub, va - vb), (Mul, va * vb)):
            src = ref.render(op(Paren(a), Paren(b)))
            assert eval_expr(parse_expr(src, 2, 3), args) == v, src


def _form_size(terms):
    """(products, variable factors) of a sum of products, nested sums included."""
    products = len(terms)
    factors = sum(len(f) for _, f, _ in terms)
    for _, _, sums in terms:
        for s in sums:
            p, f = _form_size(s)
            products, factors = products + p, factors + f
    return products, factors


def test_flat_eval_matches_reference():
    # 300 reference trees, rendered and parsed: the same values at random
    # points and the same leaf counts, in a form no larger than the tree
    rng = random.Random(23)
    for _ in range(300):
        tree = ref.random_expr(rng, 3, arity=3)
        expr = parse_expr(ref.render(tree), 3, 3)
        for args in _points(rng, 4):
            assert eval_expr(expr, args) == ref.evaluate(tree, args)
        assert leaf_counts(expr) == ref.leaves(tree)
        products, factors = _form_size(expr.terms)
        assert products <= ref.nodes(tree)
        assert factors <= sum(ref.leaves(tree).values())


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
        "--(i1 - j1) - -(k1 + 2) * -(j2 - 3*i3)",
    ]
    for src in sources:
        expr = parse_expr(src, 3, 3)
        tree = ref.from_text(src)
        assert leaf_counts(expr) == ref.leaves(tree)
        for args in _points(rng, 50):
            assert eval_expr(expr, args) == ref.evaluate(tree, args)


def test_flat_eval_errors():
    expr = parse_expr("i1 + k2", 3, 2)
    with pytest.raises(ArityError):
        eval_expr(expr, ((1, 2), (3, 4)))
    cancelled = parse_expr("k1 - k1", 3, 1)
    with pytest.raises(ArityError):
        eval_expr(cancelled, ((1,), (2,)))
    assert eval_expr(cancelled, ((1,), (2,), (3,))) == 0
    assert leaf_counts(cancelled) == {(2, 1): 2}
    vanished = parse_expr("0*k1", 3, 1)
    with pytest.raises(ArityError):
        eval_expr(vanished, ((1,), (2,)))


def test_flat_form_stays_linear_in_the_ast():
    seven = Paren(Lit(1))
    for arg, coord in ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)):
        seven = Paren(Add(seven.inner, Var(arg, coord)))
    tree = seven
    for _ in range(7):
        tree = Mul(tree, seven)
    src = ref.render(tree)
    assert src == "*".join(["(1 + i1 + i2 + i3 + j1 + j2 + j3)"] * 8)
    expr = parse_expr(src, 2, 3)
    products, factors = _form_size(expr.terms)
    assert products + factors <= ref.nodes(tree)
    args = ((1, -2, 3), (0, 5, -1))
    assert eval_expr(expr, args) == ref.evaluate(tree, args) == 7 ** 8


def test_flat_form_leaves_ast_equality():
    # evaluation writes nothing onto the parsed value
    expr = parse_expr(OCTONION_EXPR, 2, 3)
    twin = parse_expr(OCTONION_EXPR, 2, 3)
    eval_expr(expr, ((1, 0, 1), (0, 1, 1)))
    assert expr == twin and hash(expr) == hash(twin) and repr(expr) == repr(twin)


def test_only_parentheses_nest():
    n = 2000
    assert value("+".join(["i1*j1"] * n)) == n * 55
    assert value("*".join(["1"] * n) + "*i1") == 5
    assert value("-" * n + "i1") == 5
    assert value("-" * (n + 1) + "i1") == -5
    with pytest.raises(ExprTooDeep):
        parse_expr("(" * 1000 + "i1" + ")" * 1000, 2, 1)
