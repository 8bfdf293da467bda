"""Group arithmetic, enumeration, characters, element text forms."""

import dataclasses
import pickle
import random
from fractions import Fraction

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


# int() reads other scripts' digits and "_"; element text takes ASCII 0-9 only
NON_ASCII_DIGITS = pytest.mark.parametrize("text", ["(\u0661,0,0)", "u^\u0662", "(1_1,0,0)"],
                                           ids=["arabic_indic_one", "arabic_indic_power", "underscore"])


@NON_ASCII_DIGITS
def test_parse_element_reads_ascii_digits_only(text):
    with pytest.raises(SpecMismatch):
        GroupSpec((4, 4, 4)).parse_element(text)


@given(st.lists(st.integers(-8, 8), min_size=2, max_size=2))
def test_parse_render_round_trip_free(coords):
    g = tuple(coords)
    assert ZZ.parse_element(ZZ.render_element(g)) == g


@given(st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_parse_render_round_trip_torsion(coords):
    g = tuple(coords)
    assert Z2_3.parse_element(Z2_3.render_element(g)) == g


# -- one-pass arithmetic against the reduce-everything reference ---------------

def ref_reduce(spec, coords):
    coords = tuple(coords)
    if len(coords) != spec.rank:
        raise SpecMismatch(
            f"element has {len(coords)} coordinates, spec wants {spec.rank}"
        )
    orders = spec.cyclic_orders
    out = tuple(c % m for c, m in zip(coords, orders))
    if spec.free_rank:
        out += tuple(int(c) for c in coords[len(orders):])
    return out


def ref_mul(spec, g, h):
    g, h = ref_reduce(spec, g), ref_reduce(spec, h)
    return ref_reduce(spec, (a + b for a, b in zip(g, h)))


def ref_inv(spec, g):
    return ref_reduce(spec, (-a for a in g))


REF_SPECS = [
    GroupSpec((4,)),
    GroupSpec((2, 3)),
    GroupSpec((), 2),
    GroupSpec((3,), 2),
    GroupSpec((2, 4), 1),
]


def _coords(rng, spec):
    # out-of-range and negative torsion coordinates included
    g = [rng.randint(-9, 9) for _ in range(spec.rank)]
    return tuple(g) if rng.random() < 0.5 else g


def _is_int_tuple(x):
    return type(x) is tuple and all(type(c) is int for c in x)


@pytest.mark.parametrize("spec", REF_SPECS, ids=repr)
def test_one_pass_arithmetic_matches_reference(spec):
    rng = random.Random(spec.rank * 31 + len(spec.cyclic_orders))
    for _ in range(400):
        g, h = _coords(rng, spec), _coords(rng, spec)
        for got, want in (
            (spec.reduce(g), ref_reduce(spec, g)),
            (spec.mul(g, h), ref_mul(spec, g, h)),
            (spec.inv(g), ref_inv(spec, g)),
        ):
            assert got == want
            assert _is_int_tuple(got)
    g = _coords(rng, spec)
    assert spec.reduce(iter(g)) == ref_reduce(spec, g)
    assert spec.mul(iter(g), iter(g)) == ref_mul(spec, g, g)
    assert spec.inv(iter(g)) == ref_inv(spec, g)
    assert _is_int_tuple(spec.reduce([True] * spec.rank))
    # free coordinates go through int(), as in the reference
    n = len(spec.cyclic_orders)
    if spec.free_rank:
        g = (1,) * n + (Fraction(7, 2),) + (-2.0,) * (spec.free_rank - 1)
        h = (2,) * n + (Fraction(1, 2),) * spec.free_rank
        for got, want in (
            (spec.reduce(g), ref_reduce(spec, g)),
            (spec.mul(g, h), ref_mul(spec, g, h)),
            (spec.inv(g), ref_inv(spec, g)),
        ):
            assert got == want
            assert _is_int_tuple(got)


@pytest.mark.parametrize("spec", REF_SPECS, ids=repr)
def test_one_pass_arithmetic_length_mismatch(spec):
    good = (1,) * spec.rank
    for bad in ((1,) * (spec.rank + 1), [1] * (spec.rank - 1)):
        msg = f"element has {len(bad)} coordinates, spec wants {spec.rank}"
        for call in (
            lambda: spec.reduce(bad),
            lambda: spec.mul(bad, good),
            lambda: spec.mul(good, bad),
            lambda: spec.inv(bad),
        ):
            with pytest.raises(SpecMismatch) as e:
                call()
            assert str(e.value) == msg


def test_private_attributes_leave_dataclass_behaviour():
    spec = GroupSpec((2, 4), 1)
    twin = GroupSpec([2, 4], 1)
    assert spec == twin and hash(spec) == hash(twin)
    assert repr(spec) == "GroupSpec(cyclic_orders=(2, 4), free_rank=1)"
    assert [f.name for f in dataclasses.fields(spec)] == ["cyclic_orders", "free_rank"]
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec)
    assert back.mul((1, 3, -2), (1, 3, 5)) == (0, 2, 3)
    wider = dataclasses.replace(spec, free_rank=2)
    assert (wider.rank, wider.torsion_rank) == (4, 2)
    assert wider.mul((1, 1, 1, 1), (1, 3, 1, -1)) == (0, 0, 2, 0)
    assert wider != spec
    assert dataclasses.replace(spec) == spec
