"""Scalar ring tests: canonical forms, ring axioms, serialization."""

import copy
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasicyc import scalars as scalars_module
from quasicyc.scalars import (
    NonUnitLaurent,
    RingMismatch,
    Scalar,
    Unit,
    cyclotomic_poly,
    parse_scalar,
)


def euler_phi(n: int) -> int:
    """The totient by trial division, independent of cyclotomic_poly."""
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


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


def test_parse_scalar_reads_exponents_mod_N():
    assert parse_scalar("Q(zeta_3): z^-1") == Unit.root_of_unity(3, 2)
    assert parse_scalar("Q(zeta_3): z^-1") == Scalar.cyclotomic(3, [-1, -1])
    z8 = Scalar.root_of_unity(8, 1)
    assert parse_scalar("Q(zeta_8): 2*z^-3 + z^11") == -2 * z8 + z8 ** 3
    tracemalloc.start()
    try:
        assert parse_scalar("Q(zeta_3): z^3000000") == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("text, N, message", [
    ("Q(zeta_9240): 1", 0, "outside"),
    ("Q(zeta_4620): 1 + z", 0, "outside"),
    ("Q(zeta_0): 1", 0, "outside"),
    ("Q(zeta_7): z", 5, r"where Q\(zeta_5\) is expected"),
    ("Q(zeta_57: 1 + z", 0, "unclosed"),
])
def test_parse_scalar_rejects_a_header_before_building_phi(monkeypatch, text, N, message):
    def refuse(order):
        raise AssertionError(f"built Phi_{order}")

    monkeypatch.setattr(scalars_module, "cyclotomic_poly", refuse)
    with pytest.raises(ValueError, match=message):
        parse_scalar(text, "cyclotomic", N)


def test_parse_scalar_accepts_headers_up_to_the_bound():
    top = scalars_module.MAX_HEADER_ORDER
    assert parse_scalar(f"Q(zeta_{top}): z^{top + 1}") == Scalar.root_of_unity(top, 1)
    assert parse_scalar("Q(zeta_5): z", "cyclotomic", 5) == Scalar.root_of_unity(5, 1)


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
    # scalars() builds from ints; the same values given as Fractions must
    # land on the same canonical payload, equality and hash
    for s in (a, b):
        again = _rebuilt_from_fractions(s)
        assert again == s and hash(again) == hash(s)
        assert [type(c) for c in _coeffs(again)] == [type(c) for c in _coeffs(s)]


def _rebuilt_from_fractions(s):
    if s.tag == "rational":
        return Scalar.rational(Fraction(s.payload))
    if s.tag == "cyclotomic":
        return Scalar.cyclotomic(s.n, [Fraction(c) for c in s.payload])
    return Scalar.laurent({e: Fraction(c) for e, c in s.payload})


# ---------------------------------------------------------------------------
# Reference: the all-Fraction kernel that the int-first one replaced.  Values
# are (tag, n, payload) triples with Fraction coefficients, exactly the
# payloads that kernel stored.

def _ref_cyc_reduce(N, coeffs):
    phi = cyclotomic_poly(N)
    k = len(phi) - 1
    a = [Fraction(c) for c in coeffs]
    for deg in range(len(a) - 1, k - 1, -1):
        c = a[deg]
        if c:
            for i in range(k + 1):
                a[deg - k + i] -= c * phi[i]
        a.pop()
    while len(a) < k:
        a.append(Fraction(0))
    return tuple(a)


def _ref_cyc_mul(N, a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _ref_cyc_reduce(N, out)


def _ref_poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    while db >= 0 and b[db] == 0:
        db -= 1
    quo = [Fraction(0)] * max(len(a) - db, 1)
    for k in range(len(a) - 1 - db, -1, -1):
        if len(a) > k + db and a[k + db]:
            c = a[k + db] / b[db]
            quo[k] = c
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quo, a


def _ref_cyc_inverse(N, a):
    r0 = [Fraction(c) for c in cyclotomic_poly(N)]
    r1 = list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(c != 0 for c in r1):
        q, r = _ref_poly_divmod(r0, r1)
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_next = [
            (s0[i] if i < len(s0) else Fraction(0)) - (prod[i] if i < len(prod) else Fraction(0))
            for i in range(max(len(s0), len(prod)))
        ]
        r0, r1 = r1, r
        s0, s1 = s1, s_next
    return _ref_cyc_reduce(N, [c / r0[0] for c in s0])


def _ref_cyclotomic(N, coeffs):
    vec = _ref_cyc_reduce(N, coeffs)
    if all(c == 0 for c in vec[1:]):
        return ("rational", 0, vec[0])
    return ("cyclotomic", N, vec)


def _ref_laurent(pairs):
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
    acc = {e: c for e, c in acc.items() if c != 0}
    if not acc:
        return ("rational", 0, Fraction(0))
    if set(acc) == {0}:
        return ("rational", 0, acc[0])
    return ("laurent", 0, tuple(sorted(acc.items())))


def _ref_promote(a, b):
    if a[:2] == b[:2]:
        return a[0], a[1], a[2], b[2]
    if a[0] == "rational":
        if b[0] == "cyclotomic":
            return "cyclotomic", b[1], (a[2],) + (Fraction(0),) * (len(b[2]) - 1), b[2]
        return "laurent", 0, ((0, a[2]),) if a[2] else (), b[2]
    tag, n, pb, pa = _ref_promote(b, a)
    return tag, n, pa, pb


def _ref_add(a, b):
    tag, n, pa, pb = _ref_promote(a, b)
    if tag == "rational":
        return (tag, 0, pa + pb)
    if tag == "cyclotomic":
        return _ref_cyclotomic(n, [x + y for x, y in zip(pa, pb)])
    return _ref_laurent(list(pa) + list(pb))


def _ref_mul(a, b):
    tag, n, pa, pb = _ref_promote(a, b)
    if tag == "rational":
        return (tag, 0, pa * pb)
    if tag == "cyclotomic":
        return _ref_cyclotomic(n, _ref_cyc_mul(n, pa, pb))
    return _ref_laurent([(e1 + e2, c1 * c2) for e1, c1 in pa for e2, c2 in pb])


def _ref_neg(a):
    if a[0] == "rational":
        return (a[0], 0, -a[2])
    if a[0] == "cyclotomic":
        return (a[0], a[1], tuple(-c for c in a[2]))
    return (a[0], 0, tuple((e, -c) for e, c in a[2]))


def _ref_inverse(a):
    if a[0] == "rational":
        return (a[0], 0, 1 / a[2])
    if a[0] == "cyclotomic":
        return _ref_cyclotomic(a[1], _ref_cyc_inverse(a[1], a[2]))
    (e, c), = a[2]
    return _ref_laurent([(-e, 1 / c)])


def _ref_pow(a, k):
    if k < 0:
        a, k = _ref_inverse(a), -k
    out = ("rational", 0, Fraction(1))
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _coeffs(s):
    if s.tag == "rational":
        return [s.payload]
    if s.tag == "cyclotomic":
        return list(s.payload)
    return [c for _, c in s.payload]


def _assert_canonical(s):
    # int when integral, else a lowest-terms Fraction; never bool or float
    for c in _coeffs(s):
        if type(c) is not int:
            assert type(c) is Fraction and c.denominator > 1, (s, c)


def _check(s, ref):
    old = Scalar(*ref, _raw=True)  # the same value in the all-Fraction form
    assert (s.tag, s.n, s.payload) == ref
    assert s == old and hash(s) == hash(old)
    assert s.to_text() == old.to_text()
    _assert_canonical(s)


def _random_coeff(rng):
    if rng.random() < 0.6:
        return rng.randint(-4, 4)
    # denominators 1 and 2 also give integral Fractions
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6]))


def _random_operand(rng, ring, N):
    if ring == "rational":
        c = _random_coeff(rng)
        return Scalar.rational(c), ("rational", 0, Fraction(c))
    if ring == "cyclotomic":
        coeffs = [_random_coeff(rng) for _ in range(rng.randint(1, N))]
        return Scalar.cyclotomic(N, coeffs), _ref_cyclotomic(N, coeffs)
    pairs = [(rng.randint(-4, 4), _random_coeff(rng)) for _ in range(rng.randint(1, 3))]
    return Scalar.laurent(pairs), _ref_laurent(pairs)


def _invertible(s):
    return not s.is_zero() and (s.tag != "laurent" or len(s.payload) == 1)


@pytest.mark.parametrize("N", [3, 4, 5, 7, 8, 12, 15])
def test_kernel_matches_fraction_reference(N):
    rng = random.Random(1000 + N)
    rings = ["rational", "cyclotomic", "laurent"]
    for _ in range(300):
        ra, rb = rng.choice(rings), rng.choice(rings)
        if {ra, rb} == {"cyclotomic", "laurent"}:
            rb = ra
        a, ar = _random_operand(rng, ra, N)
        b, br = _random_operand(rng, rb, N)
        _check(a, ar)
        _check(b, br)
        _check(a * b, _ref_mul(ar, br))
        _check(a + b, _ref_add(ar, br))
        _check(a - b, _ref_add(ar, _ref_neg(br)))
        _check(-a, _ref_neg(ar))
        k = rng.randint(0, 4)
        _check(a ** k, _ref_pow(ar, k))
        if _invertible(a):
            _check(a.inverse(), _ref_inverse(ar))
            _check(a ** -2, _ref_pow(ar, -2))
        if _invertible(b):
            _check(a / b, _ref_mul(ar, _ref_inverse(br)))
        # plain int and Fraction operands promote as rationals
        c = _random_coeff(rng)
        cr = ("rational", 0, Fraction(c))
        _check(a * c, _ref_mul(ar, cr))
        _check(c + a, _ref_add(cr, ar))
        _check(c - a, _ref_add(cr, _ref_neg(ar)))


def test_division_stays_exact():
    def payload(s):
        _assert_canonical(s)
        return s.payload

    third = payload(Scalar.rational(3).inverse())
    assert type(third) is Fraction and third == Fraction(1, 3)
    assert payload(Scalar.rational(-2, 4)) == Fraction(-1, 2)
    two = payload(Scalar.rational(Fraction(4, 2)))
    assert type(two) is int and two == 2
    one = payload(Scalar.rational(True))
    assert type(one) is int and one == 1
    assert payload(Scalar.q_power(-5, 2).inverse()) == ((5, Fraction(1, 2)),)
    assert payload(Scalar.q_power(3, -1).inverse()) == ((-3, -1),)
    w = Scalar.cyclotomic(8, [1, 1, 0, 0])  # 1 + zeta_8, norm 2
    inv = w.inverse()
    assert inv * w == 1 and all(type(c) is Fraction for c in payload(inv))
    assert all(type(c) is int for c in payload(Scalar.root_of_unity(8, 3).inverse()))
    assert payload(Scalar.rational(6) / 3) == 2 and type(payload(Scalar.rational(6) / 3)) is int
    assert payload(Scalar.rational(3) / Scalar.rational(6)) == Fraction(1, 2)
    assert payload(1 / Scalar.rational(-4)) == Fraction(-1, 4)
    for bad in (lambda: Scalar.rational(0.5), lambda: Scalar.cyclotomic(3, [1, 0.0]),
                lambda: Scalar.laurent({1: 0.0}), lambda: Scalar.rational(1, 2.0)):
        with pytest.raises(TypeError):
            bad()


def test_zero_and_one_are_shared():
    assert Scalar.zero() is Scalar.zero() and Scalar.one() is Scalar.one()
    assert Scalar.zero().payload == 0 and Scalar.one().payload == 1
    with pytest.raises(TypeError):
        Scalar("rational", 0, 1)
