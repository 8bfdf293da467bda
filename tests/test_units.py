"""Unit monomials against the Scalar kernel, their reference.

Every Unit operation is checked against the same operation on the equal
Scalars: products, inverses, negation, sums, times(), equality, hashing,
text and the RingMismatch cases.  A guard test counts the Scalar products
and inverses that the pointwise paths make, which must stay zero.
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from quasicyc.cochains import Cochain2, check_cochain_laws, coboundary_phi
from quasicyc.cyclic import identity_suite
from quasicyc.groups import GroupSpec
from quasicyc.presets import builtin
from quasicyc.quasialgebra import check_algebra_laws
from quasicyc.scalars import LAURENT, RingMismatch, Scalar, Unit, parse_scalar
from quasicyc.twist import conjugator

ORDERS = (1, 2, 3, 4, 6, 8)
COEFFS = (1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3))


def ref_unit(c, n, a, b):
    """The Scalar c * zeta_n^a * q^b, built with the Scalar kernel."""
    return Scalar.rational(c) * Scalar.root_of_unity(n, a) * Scalar.q_power(b)


def outcome(fn):
    """fn()'s value, or RingMismatch when it raises that."""
    try:
        return fn()
    except RingMismatch:
        return RingMismatch


def random_fields(rng, count):
    """Seeded (c, n, a, b): half with b = 0, the rest mostly Laurent."""
    out = []
    for _ in range(count):
        c, n = rng.choice(COEFFS), rng.choice(ORDERS)
        a, b = rng.randrange(-n, 2 * n), rng.randint(-5, 5)
        out.append((c, n, a, 0 if rng.random() < 0.5 else b))
    return out


def random_scalars(rng, count):
    out = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(Scalar.rational(rng.randint(-4, 4), rng.randint(1, 3)))
        elif kind == 1:
            N = rng.choice((3, 4, 6, 8))
            acc = Scalar.zero()
            for _ in range(rng.randint(1, 3)):
                acc = acc + rng.choice(COEFFS) * Scalar.root_of_unity(N, rng.randrange(N))
            out.append(acc)
        else:
            out.append(Scalar.laurent(
                {rng.randint(-4, 4): rng.choice(COEFFS) for _ in range(rng.randint(1, 3))}
            ))
    return out


FIELDS = random_fields(random.Random(8), 800)
UNITS = [u for u in (outcome(lambda: Unit(*f)) for f in FIELDS) if u is not RingMismatch]


def test_construction_matches_scalars():
    assert len(UNITS) >= 500
    for fields in FIELDS:
        ref = outcome(lambda: ref_unit(*fields))
        got = outcome(lambda: Unit(*fields))
        assert (got is RingMismatch) == (ref is RingMismatch), fields
        if ref is not RingMismatch:
            assert got.scalar() == ref, fields


def test_canonical_form():
    for u in UNITS:
        assert u.n >= 1 and 0 <= u.a < u.n
        assert (u.a == 0) == (u.n == 1)
        assert u.n % 2 or 2 * u.a < u.n
        assert not (u.a and u.b)
        assert type(u.c) is int or u.c.denominator > 1
        again = Unit.of(u.scalar())
        assert (again.c, again.n, again.a, again.b) == (u.c, u.n, u.a, u.b)
        assert pickle.loads(pickle.dumps(u)) == u
    assert Unit(1, 4, 3) == Unit(-1, 4, 1) and Unit(5, 4, 2) == Unit(-5)
    assert (Unit(1, 6, 3).c, Unit(1, 6, 3).n) == (-1, 1)
    with pytest.raises(AttributeError):
        UNITS[0].c = 7
    with pytest.raises(ValueError):
        Unit(0)


def test_products_inverses_and_negation_match_scalars():
    rng = random.Random(9)
    for u in UNITS:
        us = u.scalar()
        assert u.inverse().scalar() == us.inverse()
        assert (u * u.inverse()) == 1
        assert (-u).scalar() == -us
        for k in (0, 3, Fraction(-1, 2)):
            assert (u * k) == us * k and (k * u) == us * k
        for v in rng.sample(UNITS, 12):
            got = outcome(lambda: u * v)
            ref = outcome(lambda: us * v.scalar())
            assert (got is RingMismatch) == (ref is RingMismatch), (u, v)
            if ref is not RingMismatch:
                assert type(got) is Unit and got.scalar() == ref


def test_equality_hash_and_text_match_scalars():
    rng = random.Random(10)
    for u in UNITS:
        us = u.scalar()
        assert u == us and us == u and not (u != us)
        assert hash(u) == hash(us)
        assert u.render() == us.render() and str(u) == str(us)
        assert u.to_text() == us.to_text()
        assert u.is_rational() == us.is_rational() and not u.is_zero()
        if u.is_rational():
            assert u == us.payload
        for v in rng.sample(UNITS, 12):
            assert (u == v) == (us == v.scalar())
            assert (u == v.scalar()) == (us == v.scalar())


def test_times_sums_and_mismatches_match_scalars():
    rng = random.Random(11)
    xs = random_scalars(rng, 60)
    for u in UNITS:
        us = u.scalar()
        # a Laurent shift onto q^0 must come back rational
        ys = rng.sample(xs, 8) + [Scalar.q_power(-u.b, 3), Scalar.zero()]
        for x in ys:
            for got, ref in (
                (lambda: u.times(x), lambda: x * us),
                (lambda: x * u, lambda: x * us),
                (lambda: u + x, lambda: us + x),
                (lambda: x - u, lambda: x - us),
            ):
                got, ref = outcome(got), outcome(ref)
                assert (got is RingMismatch) == (ref is RingMismatch), (u, x)
                if ref is not RingMismatch:
                    assert type(got) is Scalar
                    assert (got.tag, got.n, got.payload) == (ref.tag, ref.n, ref.payload)


def test_ring_mismatch_cases():
    z4, z3, q = Unit.root_of_unity(4, 1), Unit.root_of_unity(3, 1), Unit.q_power(2)
    for bad in (lambda: z4 * q, lambda: q * z4, lambda: z4 * z3, lambda: Unit(1, 4, 1, 1),
                lambda: z4.times(Scalar.q_power(1)), lambda: q.times(z3.scalar()),
                lambda: z3.times(z4.scalar())):
        with pytest.raises(RingMismatch):
            bad()
    # a sign root combines with every ring
    assert Unit.root_of_unity(4, 2) * q == Scalar.q_power(2, -1)


def _z5_table_cochain():
    group = GroupSpec((5,))
    entries = []
    for (g,) in group.elements():
        for (h,) in group.elements():
            if g == 0 or h == 0:
                text = "1"
            elif (g * h) % 2:
                text = "Q(zeta_5): 1 + z"
            else:
                text = "Q(zeta_5): -z^2"
            entries.append(((g,), (h,), parse_scalar(text)))
    return Cochain2.from_table(group, entries)


def test_table_cochain_with_non_monomial_units():
    F = _z5_table_cochain()
    assert type(F.value((1,), (1,))) is Scalar
    assert type(F.value((1,), (2,))) is Unit and type(F.value((0,), (3,))) is Unit
    assert check_cochain_laws(coboundary_phi(F), "three_cocycle").holds
    for law in ("braided_commutativity", "quasi_associativity"):
        assert check_algebra_laws(F, law).holds


@pytest.fixture
def scalar_counts(monkeypatch):
    counts = {"laurent_products": 0, "inverses": 0}
    mul, inverse = Scalar.__mul__, Scalar.inverse

    def counted_mul(self, other):
        if LAURENT in (self.tag, getattr(other, "tag", None)):
            counts["laurent_products"] += 1
        return mul(self, other)

    def counted_inverse(self):
        counts["inverses"] += 1
        return inverse(self)

    monkeypatch.setattr(Scalar, "__mul__", counted_mul)
    monkeypatch.setattr(Scalar, "__rmul__", counted_mul)
    monkeypatch.setattr(Scalar, "inverse", counted_inverse)
    return counts


def test_pointwise_paths_make_no_scalar_products(scalar_counts):
    torus = builtin("torus")
    F = torus.cochain()
    assert check_cochain_laws(coboundary_phi(F), "three_cocycle", ("window", 1)).holds
    reps = identity_suite(torus.group, (), 2, wrap=conjugator(F), window=2, samples=20, seed=3)
    assert reps and all(rep.holds for rep in reps)
    assert scalar_counts == {"laurent_products": 0, "inverses": 0}


def test_a_unit_times_a_cyclic_cochain_equals_the_scalar_product():
    from quasicyc.cyclic import CyclicCochain

    phi = CyclicCochain.basis(GroupSpec((4,)), (1,), 1, 2)
    for u in (Unit.root_of_unity(4, 1), Unit(Fraction(-1, 3), 4, 3), Unit.one()):
        assert u * phi == u.scalar() * phi
        assert (u * phi).vec[2] == u.scalar()
    assert Fraction(1, 2) * phi == Scalar.rational(1, 2) * phi
    for bad in (object(), 0.5, "2"):
        with pytest.raises(TypeError):
            bad * phi


def test_every_path_to_one_returns_the_shared_one():
    one = Unit.one()
    made = [
        Unit(1), Unit(1, 4, 0), Unit(1, 6, 6), Unit(-1, 4, 2), Unit(Fraction(2, 2)), Unit(True),
        Unit.q_power(0), Unit.of(Scalar.one()), Unit.of(Scalar.laurent({0: 1})),
        Unit.root_of_unity(1, 0), Unit(-1) * Unit(-1), Unit(2).inverse() * 2, -Unit(-1),
        -(-one), one.inverse(), pickle.loads(pickle.dumps(one)),
        Unit.q_power(2) * Unit.q_power(-2), Unit(Fraction(1, 3)) * 3,
    ]
    made += [Unit.root_of_unity(n, 0) for n in ORDERS]
    made += [Unit.root_of_unity(n, n) for n in ORDERS]
    made += [u * u.inverse() for u in UNITS] + [u.inverse() * u for u in UNITS]
    made += [Unit.root_of_unity(n, 1) * Unit.root_of_unity(n, n - 1) for n in ORDERS]
    assert [i for i, u in enumerate(made) if u is not one] == []
    # a Unit that only looks like one in part is not it
    assert all(u is not one for u in (Unit(-1), Unit(1, 4, 1), Unit.q_power(1), Unit(2)))


def test_a_product_with_one_returns_the_other_factor(monkeypatch):
    from quasicyc import scalars

    one, made = Unit.one(), []
    unit = scalars._unit

    def counted(*args):
        made.append(args)
        return unit(*args)

    monkeypatch.setattr(scalars, "_unit", counted)
    xs = random_scalars(random.Random(12), 30)
    for u in UNITS:
        assert u * one is u and one * u is u
        assert u * 1 is u and 1 * u is u
        assert u == u and one == one
    for x in xs:
        assert one.times(x) is x and x * one is x
    assert made == []


def test_products_with_one_equal_the_scalar_products():
    one, ones = Unit.one(), Scalar.one()
    for u in UNITS:
        us = u.scalar()
        for got in (u * one, one * u, u * 1, 1 * u):
            assert type(got) is Unit and got.scalar() == us * ones
    for x in random_scalars(random.Random(13), 30):
        ref = x * ones
        for got in (one.times(x), x * one):
            assert (got.tag, got.n, got.payload) == (ref.tag, ref.n, ref.payload)
