"""CyclicCochain's one index, the full_tuples order, against the base-|G|
index of the dims reference, and the reduced tuples the pulls rely on.

value, to_json and from_json look support tuples up through
cyclic._positions; dims_reference._index computes the same vector order
independently, as the digits of the tail (g1..gk) in base |G|.  The
character table is keyed by reduced torsion coordinates with no fallback,
so the pulls must only ever see reduced tuples.
"""

import itertools
import json
import random

import pytest

from dims_reference import _index
from quasicyc.cyclic import CyclicCochain, identity_suite, space_dim
from quasicyc.groups import GroupSpec
from quasicyc.scalars import Scalar

GROUPS = [((2, 3), (1, 2)), ((4,), (1,)), ((2, 2, 2), (1, 0, 1))]


def _cochain(group, chi, degree, seed):
    rng = random.Random(seed)
    vec = [Scalar.rational(rng.choice((0, 0, 1, -2, 3))) for _ in range(space_dim(group, degree))]
    return CyclicCochain(group, chi, degree, vec)


def _unreduced(group, g, rng):
    return tuple(c + m * rng.randint(-2, 2) for c, m in zip(g, group.cyclic_orders))


@pytest.mark.parametrize("orders, chi", GROUPS, ids=["Z2xZ3", "Z4", "Z2^3"])
def test_value_reads_the_reference_index(orders, chi):
    group = GroupSpec(orders)
    els = group.elements()
    rng = random.Random(1)
    for degree in range(4):
        phi = _cochain(group, chi, degree, degree)
        for tail in itertools.product(els, repeat=degree):
            g0 = group.inv(group.mul_all(tail))
            want = phi.vec[_index(group, tail)]
            assert phi.value((g0,) + tail) == want
            assert phi.value([list(_unreduced(group, g, rng)) for g in (g0,) + tail]) == want
            # off the support, g0 ... gk != e: zero whatever the vector holds
            for u in els[1:]:
                assert phi.value((group.mul(g0, u),) + tail).is_zero()


@pytest.mark.parametrize("orders, chi", GROUPS, ids=["Z2xZ3", "Z4", "Z2^3"])
def test_json_round_trip_follows_the_reference_index(orders, chi):
    group = GroupSpec(orders)
    rng = random.Random(2)
    for degree in range(4):
        phi = _cochain(group, chi, degree, 10 + degree)
        data = phi.to_json()
        expected = [
            [[list(g) for g in tail], phi.vec[_index(group, tail)].to_text()]
            for tail in itertools.product(group.elements(), repeat=degree)
            if not phi.vec[_index(group, tail)].is_zero()
        ]
        assert data["entries"] == expected
        assert data["degree"] == degree and data["chi"] == list(chi)
        assert CyclicCochain.from_json(json.loads(json.dumps(data))) == phi
        # unreduced coordinates in any entry order read back the same cochain
        entries = [[[list(_unreduced(group, g, rng)) for g in tail], text]
                   for tail, text in data["entries"]]
        rng.shuffle(entries)
        assert CyclicCochain.from_json({**data, "entries": entries}) == phi


def test_windowed_pulls_see_only_reduced_tuples():
    group = GroupSpec((2,), 2)
    seen = []

    def reduced(t):
        return type(t) is tuple and all(type(g) is tuple and g == group.reduce(g) for g in t)

    def wrap(pull):
        def checked(t):
            assert reduced(t), t
            t_in, c = pull(t)
            assert reduced(t_in), t_in
            seen.append(t)
            return t_in, c

        return checked

    reports = identity_suite(group, (1,), 3, wrap=wrap, window=2, samples=10, seed=3)
    assert [r.holds for r in reports] == [True] * 6
    assert any(g[0] == 1 and g[1:] != (0, 0) for t in seen for g in t)
