"""Scalar ring tests: canonical forms, ring axioms, serialization."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasicyc.scalars import (
    NonUnitLaurent,
    RingMismatch,
    Scalar,
    cyclotomic_poly,
    euler_phi,
    parse_scalar,
)


# The defining identity x^N - 1 = prod_{d | N} Phi_d(x) is the oracle for
# the cyclotomic polynomial table; exponent-reduction values below are
# frozen against it.
def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@pytest.mark.parametrize("N", list(range(1, 31)))
def test_cyclotomic_poly_product_identity(N):
    prod = [1]
    for d in range(1, N + 1):
        if N % d == 0:
            prod = _poly_mul(prod, list(cyclotomic_poly(d)))
    expect = [-1] + [0] * (N - 1) + [1]
    assert prod == expect
    assert len(cyclotomic_poly(N)) - 1 == euler_phi(N)


def test_known_small_cyclotomic_polys():
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)


def test_roots_of_unity_frozen_values():
    assert Scalar.root_of_unity(2, 1) == -1
    assert Scalar.root_of_unity(3, 3) == 1
    assert Scalar.root_of_unity(8, 4) == -1  # zeta_8^4 reduced mod x^4+1
    assert Scalar.root_of_unity(4, 1) ** 2 == -1
    assert Scalar.root_of_unity(1, 5) == 1


def test_roots_of_unity_are_interned():
    assert Scalar.root_of_unity(8, 3) is Scalar.root_of_unity(8, 11)
    assert Scalar.root_of_unity(8, -5) is Scalar.root_of_unity(8, 3)


def test_laurent_exponent_addition():
    q2 = Scalar.q_power(2)
    qm3 = Scalar.q_power(-3)
    assert q2 * qm3 == Scalar.q_power(-1)
    assert str(q2 * qm3) == "q^-1"


@pytest.mark.parametrize("N", [2, 3, 4, 8])
def test_root_of_unity_order_and_sum(N):
    z = Scalar.root_of_unity(N, 1)
    assert z ** N == 1
    total = Scalar.zero()
    for k in range(N):
        total = total + z ** k
    assert total.is_zero()


def _random_scalar(rng, ring):
    if ring == "rational":
        return Scalar.rational(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
    N = rng.choice([3, 4, 5, 8, 12])
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(N))]
    return Scalar.cyclotomic(N, coeffs)


def test_field_axioms_random_triples():
    rng = random.Random(0)
    for trial in range(1000):
        ring = "rational" if trial % 2 else "cyclotomic"
        if ring == "cyclotomic":
            # triples must share N; regenerate around a fixed N
            N = rng.choice([3, 4, 5, 8])
            mk = lambda: Scalar.cyclotomic(
                N, [Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(N))]
            )
            a, b, c = mk(), mk(), mk()
        else:
            a, b, c = (_random_scalar(rng, ring) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a.inverse() * a == 1


def test_canonical_form_idempotent():
    s = Scalar.cyclotomic(8, [1, 2, 3, 4, 5, 6, 7, 8])  # over-long payload
    again = Scalar.cyclotomic(8, list(s.payload))
    assert s == again and s.payload == again.payload


def test_constant_payloads_normalize_to_rational():
    assert Scalar.root_of_unity(8, 4).is_rational()
    assert Scalar.laurent({0: Fraction(3, 2)}).is_rational()
    assert Scalar.laurent({2: 0}).is_zero()
    assert Scalar.cyclotomic(5, [2, 0, 0, 0]).is_rational()


def test_rational_promotion_and_mismatch():
    z3 = Scalar.root_of_unity(3, 1)
    assert Scalar.rational(2) * z3 == z3 + z3
    q = Scalar.q_power(1)
    assert (Scalar.rational(1) + q).tag == "laurent"
    with pytest.raises(RingMismatch):
        _ = z3 + q
    with pytest.raises(RingMismatch):
        _ = Scalar.root_of_unity(3, 1) * Scalar.root_of_unity(4, 1)


def test_inverses_and_errors():
    z8 = Scalar.root_of_unity(8, 1)
    assert z8.inverse() * z8 == 1
    assert z8.inverse() == z8 ** 7
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()
    with pytest.raises(NonUnitLaurent):
        (Scalar.q_power(1) + 1).inverse()
    assert Scalar.q_power(5, Fraction(2, 3)).inverse() == Scalar.q_power(-5, Fraction(3, 2))


def test_pow_negative_exponent():
    q = Scalar.q_power(1)
    assert q ** -4 == Scalar.q_power(-4)
    half = Scalar.rational(1, 2)
    assert half ** -2 == 4


def test_render_formats():
    assert str(Scalar.rational(-8)) == "-8"
    assert str(Scalar.rational(3, 2)) == "3/2"
    assert str(Scalar.q_power(-1)) == "q^-1"
    assert str(Scalar.q_power(1)) == "q"
    assert str(Scalar.q_power(2, -1)) == "-q^2"
    assert str(Scalar.laurent({-1: 1, 2: Fraction(-3, 2)})) == "q^-1 - 3/2*q^2"
    z = Scalar.root_of_unity(8, 1)
    assert str(z) == "z"
    assert str(z * z - 1) == "-1 + z^2"
    assert (z * z - 1).to_text() == "Q(zeta_8): -1 + z^2"
    assert str(Scalar.zero()) == "0"


def test_parse_scalar_known_forms():
    assert parse_scalar("-8") == -8
    assert parse_scalar("3/2") == Scalar.rational(3, 2)
    assert parse_scalar("q^-1") == Scalar.q_power(-1)
    assert parse_scalar("q^-1 - 3/2*q^2") == Scalar.laurent({-1: 1, 2: Fraction(-3, 2)})
    assert parse_scalar("Q(zeta_8): -1 + z^2") == Scalar.cyclotomic(8, [-1, 0, 1, 0])
    assert parse_scalar("z", ring="cyclotomic", N=3) == Scalar.root_of_unity(3, 1)


@st.composite
def scalars(draw):
    kind = draw(st.sampled_from(["rational", "cyclotomic", "laurent"]))
    if kind == "rational":
        return Scalar.rational(draw(st.integers(-50, 50)), draw(st.integers(1, 9)))
    if kind == "laurent":
        entries = draw(
            st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=4)
        )
        return Scalar.laurent(entries)
    N = draw(st.sampled_from([3, 4, 5, 8, 12]))
    coeffs = draw(
        st.lists(
            st.integers(-9, 9), min_size=euler_phi(N), max_size=euler_phi(N)
        )
    )
    return Scalar.cyclotomic(N, coeffs)


@given(scalars())
def test_parse_render_round_trip(s):
    assert parse_scalar(s.to_text()) == s


def test_pickle_and_deepcopy_round_trip_each_ring():
    for s in (Scalar.rational(-3, 4), Scalar.root_of_unity(8, 3), Scalar.q_power(-2, 5)):
        for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert back == s and back.tag == s.tag and back.payload == s.payload
            assert hash(back) == hash(s)


@given(scalars(), scalars())
def test_equality_consistent_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)
