"""Group arithmetic, enumeration, characters, element text forms."""

import random

import pytest
from hypothesis import given, strategies as st

from quasicyc.groups import GroupSpec, InfiniteGroup, SpecMismatch
from quasicyc.scalars import Scalar

Z2 = GroupSpec((2,))
Z2_3 = GroupSpec((2, 2, 2))
ZZ = GroupSpec((), 2)

U, V, W = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_group_op_examples():
    assert Z2_3.mul(U, U) == Z2_3.identity()
    assert Z2_3.mul(U, V) == (1, 1, 0)
    assert ZZ.mul((2, -1), (-2, 1)) == (0, 0)
    assert Z2_3.inv(U) == U
    assert ZZ.inv((2, -1)) == (-2, 1)


def test_reduce_and_mismatch():
    assert Z2_3.reduce((3, -1, 4)) == (1, 1, 0)
    assert GroupSpec((3,), 2).reduce([4, -5, 7]) == (1, -5, 7)
    with pytest.raises(SpecMismatch):
        GroupSpec((3,), 2).reduce((4, -5))
    with pytest.raises(SpecMismatch):
        Z2_3.mul((1, 0), (0, 1, 0))
    with pytest.raises(SpecMismatch):
        GroupSpec((1,))
    with pytest.raises(SpecMismatch):
        GroupSpec((), 0)


def test_enumeration():
    assert Z2.elements() == [(0,), (1,)]
    assert GroupSpec((2, 2)).elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    els = Z2_3.elements()
    assert len(els) == 8 and len(set(els)) == 8
    closed = {Z2_3.mul(g, h) for g in els for h in els}
    assert closed == set(els)
    with pytest.raises(InfiniteGroup):
        ZZ.elements()
    assert len(ZZ.window_elements(3)) == 49
    assert len(ZZ.sample_window(1000)) >= 1000


def test_char_eval_examples():
    assert Z2_3.char_eval((1, 0, 0), U) == -1
    assert Z2_3.char_eval((1, 0, 0), V) == 1
    assert Z2_3.char_eval((1, 1, 1), Z2_3.identity()) == 1
    z3 = GroupSpec((3,))
    assert z3.char_eval((1,), (2,)) == Scalar.root_of_unity(3, 2)


def test_char_multiplicative_exhaustive_z2_cubed():
    w = (1, 1, 0)
    for g in Z2_3.elements():
        for h in Z2_3.elements():
            assert Z2_3.char_eval(w, Z2_3.mul(g, h)) == Z2_3.char_eval(
                w, g
            ) * Z2_3.char_eval(w, h)


def test_char_multiplicative_random_z3_z4():
    spec = GroupSpec((3, 4))
    rng = random.Random(0)
    for _ in range(500):
        w = (rng.randrange(3), rng.randrange(4))
        g = (rng.randrange(3), rng.randrange(4))
        h = (rng.randrange(3), rng.randrange(4))
        assert spec.char_eval(w, spec.mul(g, h)) == spec.char_eval(
            w, g
        ) * spec.char_eval(w, h)


def test_combine_weights():
    assert Z2_3.combine_weights([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == (1, 1, 1)
    assert Z2_3.combine_weights([(1, 1, 0), (1, 1, 0)]) == (0, 0, 0)


def test_render_element():
    assert Z2_3.render_element((0, 0, 0)) == "e"
    assert Z2_3.render_element((1, 1, 1)) == "u*v*w"
    assert ZZ.render_element((2, -1)) == "u^2*v^-1"
    assert GroupSpec((2, 2, 2, 2)).render_element((1, 0, 0, 1)) == "(1,0,0,1)"


def test_parse_element():
    assert Z2_3.parse_element("e") == (0, 0, 0)
    assert Z2_3.parse_element("uvw") == (1, 1, 1)
    assert Z2_3.parse_element("u*v*w") == (1, 1, 1)
    assert ZZ.parse_element("u^-1*v^-1") == (-1, -1)
    assert ZZ.parse_element("u^2*v^-1") == (2, -1)
    assert ZZ.parse_element("(2,-1)") == (2, -1)
    assert Z2_3.parse_element("(1, 0, 1)") == (1, 0, 1)
    assert Z2_3.parse_element("u^3") == (1, 0, 0)
    with pytest.raises(SpecMismatch):
        Z2.parse_element("v")
    with pytest.raises(SpecMismatch):
        Z2.parse_element("x2")


@given(st.lists(st.integers(-8, 8), min_size=2, max_size=2))
def test_parse_render_round_trip_free(coords):
    g = tuple(coords)
    assert ZZ.parse_element(ZZ.render_element(g)) == g


@given(st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_parse_render_round_trip_torsion(coords):
    g = tuple(coords)
    assert Z2_3.parse_element(Z2_3.render_element(g)) == g
