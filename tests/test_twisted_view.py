"""The transport prefactor built by recursion over suffixes, and the shared
twisted store of each (group, chi, twist), cyclic.operators(group, chi, F).

P(g0, g1, .., gk) = F(g0, g1) P(g0g1, g2, .., gk) is compared with the
k-product loop of prefactor_reference on the octonions, on a table twist
with non-monomial cyclotomic values and on sampled torus tuples.  The store
is checked for the work it saves (each P built once, each row conjugated
once, across the hh and hc dims and the certificate of one twist), for
its bound, and for reading the rows of its own twist only.
"""

import gc
import random
import weakref
from pathlib import Path

import pytest

import dims_reference
import prefactor_reference
from quasicyc import cyclic
from quasicyc.cochains import Cochain2
from quasicyc.cyclic import (
    CyclicCochain,
    OperatorCache,
    cohomology_dims,
    full_tuples,
    operators,
    sample_tuples,
)
from quasicyc.groups import GroupSpec
from quasicyc.presets import builtin, load
from quasicyc.scalars import Scalar
from quasicyc.twist import (
    TransportPrefactor,
    certificate_ok,
    transport,
    transport_inverse,
    verify_transport,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
E3, Z3, Z4 = GroupSpec((2, 2, 2)), GroupSpec((3,)), GroupSpec((4,))


def _octonion():
    return builtin("octonion").cochain()


def _z5_table():
    return load(str(GOLDEN / "z5_table_preset.json")).cochain()


def _torus():
    return builtin("torus").cochain()


def _tuples(F, k):
    """Every support tuple of degree k on a finite group, a seeded sample
    from window(2) on the torus."""
    return sample_tuples(F.group, k, 2, 40, k)


# (twist, highest degree compared)
CASES = [(_octonion, 4), (_z5_table, 3), (_torus, 4)]
IDS = ["octonion", "z5_table", "torus"]


@pytest.mark.parametrize("make, top", CASES, ids=IDS)
def test_value_equals_the_product_loop_in_any_order(make, top):
    F = make()
    tuples = [t for k in range(top + 1) for t in _tuples(F, k)]
    want = {t: prefactor_reference.prefactor(F, t) for t in tuples}
    assert any(p != 1 for p in want.values())
    # a cold memo reached from the longest tuples first, the shortest first
    # and in a shuffled order
    shuffled = list(tuples)
    random.Random(7).shuffle(shuffled)
    for order in (tuples[::-1], tuples, shuffled):
        pref = TransportPrefactor(F)
        assert {t: pref.value(t) for t in order} == want
        assert all(pref.inverse_value(t) == want[t].inverse() for t in order)


@pytest.mark.parametrize("make, top", CASES[:2], ids=IDS[:2])
def test_lists_equal_the_product_loop(make, top):
    F = make()
    for degrees in (range(top + 1), range(top, -1, -1)):
        pref = TransportPrefactor(F)
        for k in degrees:
            want = [prefactor_reference.prefactor(F, t) for t in full_tuples(F.group, k)]
            assert pref.values(k) == want
            inv = pref.inverses(k)
            assert inv[1] == [p.inverse() for p in want]
            assert inv[-1] == [-p.inverse() for p in want]


def _count_lookups(F):
    """The (g, h) of every F.value call made from now on."""
    calls, value = [], F.value

    def counted(g, h):
        calls.append((g, h))
        return value(g, h)

    F.value = counted
    return calls


def test_sparse_transport_looks_up_F_only_at_the_entry():
    F = _octonion()
    chi = builtin("octonion").ribbon_weight()
    tuples = full_tuples(E3, 5)
    idx = next(i for i, t in enumerate(tuples) if prefactor_reference.prefactor(F, t) != 1)
    phi = CyclicCochain.basis(E3, chi, 5, idx)
    F = _octonion()  # a cold memo
    calls = _count_lookups(F)
    out = transport(phi, F)
    assert len(calls) <= 5
    del calls[:]
    back = transport_inverse(out, F)
    assert len(calls) <= 5
    assert back == phi
    assert out.vec[idx] == prefactor_reference.prefactor(F, tuples[idx])
    assert [i for i, v in enumerate(out.vec) if not v.is_zero()] == [idx]


def test_transport_equals_the_dense_reference():
    F, rng = Cochain2.from_expr(Z3, ("root_of_unity", 3), "i1*i1*j1"), random.Random(3)
    for k in range(4):
        vec = [Scalar.rational(rng.choice([0, 0, 1, -2])) for _ in full_tuples(Z3, k)]
        phi = CyclicCochain(Z3, (1,), k, vec)
        assert transport(phi, F) == prefactor_reference.transport(phi, F)


def _count_conjugations(monkeypatch):
    """(rows id, out degree, in degree) of every conjugation from now on,
    by any twisted store."""
    calls, orig = [], OperatorCache._conjugate

    def counted(store, rows, out_degree, in_degree):
        calls.append((id(rows), out_degree, in_degree))
        return orig(store, rows, out_degree, in_degree)

    monkeypatch.setattr(OperatorCache, "_conjugate", counted)
    return calls


def test_hh_and_hc_of_one_twist_build_each_prefactor_and_row_once(monkeypatch):
    chi = (1,)
    F = Cochain2.from_expr(Z4, ("root_of_unity", 4), "i1*j1*j1")
    conjugated = _count_conjugations(monkeypatch)
    lookups = _count_lookups(F)
    dims = [cohomology_dims(Z4, chi, 2, which, twist=F) for which in ("hh", "hc")]
    # b on C^0..C^2 reads P on degrees 0..3: one lookup per tuple of degree
    # >= 1, each built once
    assert len(lookups) == 4 + 16 + 64
    # hh conjugates b, hc lambda - id and reads hh's b: six (op, k), once each
    assert len(conjugated) == len(set(conjugated)) == 6
    assert dims == [cohomology_dims(Z4, chi, 2, which) for which in ("hh", "hc")]
    # a rerun and the certificate's part (b) read the same twisted store
    assert [cohomology_dims(Z4, chi, 2, which, twist=F) for which in ("hh", "hc")] == dims
    assert len(lookups) == 84
    cert = verify_transport(F, chi, Z4, 2)
    assert certificate_ok(cert)
    assert len(conjugated) == 6


def test_a_third_twist_evicts_the_oldest_view():
    chi = (1,)
    twists = [Cochain2.from_expr(Z4, ("root_of_unity", 4), e)
              for e in ("i1*j1", "i1*j1*j1", "i1*i1*j1")]
    first = operators(Z4, chi, twists[0])
    gone = weakref.ref(first)
    for F in twists:
        cohomology_dims(Z4, chi, 1, "hh", twist=F)
        assert cyclic._operator_store.cache_info().currsize <= 2
    assert cyclic._operator_store.cache_info().currsize == 2
    del first
    gc.collect()
    assert gone() is None
    again = operators(Z4, chi, twists[0]).rows("b", 1)
    assert again == dims_reference.conjugated_rows(Z4, chi, twists[0], "b", 1)


def test_each_twist_reads_its_own_view():
    chi = (1,)
    F1 = Cochain2.from_expr(Z3, ("root_of_unity", 3), "i1*i1*j1")
    F2 = Cochain2.from_expr(Z3, ("root_of_unity", 3), "i1*j1*j1")
    for F in (F1, F2, F1):
        for k in range(3):
            for op in ("b", "lambda"):
                assert operators(Z3, chi, F).rows(op, k) == dims_reference.conjugated_rows(
                    Z3, chi, F, op, k), (op, k)
    assert operators(Z3, chi, F1).rows("b", 1) != operators(Z3, chi, F2).rows("b", 1)
    # the certificate of the second twist, with the first one's store cached
    for F in (F2, F1):
        cert = verify_transport(F, chi, Z3, 2)
        assert {r["name"]: r["status"] for r in cert["identities"]}["transport_intertwines_b"] == "pass"
