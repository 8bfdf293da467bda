import random

import pytest

from quasicyc.cochains import Cochain2
from quasicyc.cyclic import (
    CyclicCochain,
    OperatorCache,
    apply_b,
    apply_lambda,
    cohomology_dims,
    full_tuples,
    space_dim,
)
from quasicyc.groups import GroupSpec, InfiniteGroup, SpecMismatch
from quasicyc.linalg import entry
from quasicyc.presets import builtin
from quasicyc.scalars import Scalar, parse_scalar
from quasicyc.twist import (
    TransportPrefactor,
    apply_b_twisted,
    apply_lambda_twisted,
    certificate_ok,
    transport,
    transport_inverse,
    verify_transport,
)
from sampled_reference import random_cochain

E3 = GroupSpec((2, 2, 2))
OCT = builtin("octonion")
OCT_F = OCT.cochain()
OCT_CHI = OCT.ribbon_weight()


def trivial_F(group):
    return Cochain2(group, lambda g, h: Scalar.one(), "trivial")


def test_prefactor_hand_values():
    pref = TransportPrefactor(OCT_F)
    u, v, w = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    uvw = (1, 1, 1)
    # F(uvw,u) F(vw,v) F(w,w) = (+1)(-1)(-1) = +1
    assert pref.value((uvw, u, v, w)) == Scalar.one()
    assert pref.value((u,)) == Scalar.one()
    e = (0, 0, 0)
    assert pref.value((e, e, e, e)) == Scalar.one()
    assert pref.inverse_value((uvw, u, v, w)) == Scalar.one()


def test_prefactor_torus():
    pref = TransportPrefactor(builtin("torus").cochain())
    # F(u^-1 v^-1, u) F(v^-1, v) = q^-1 * 1
    t = ((-1, -1), (1, 0), (0, 1))
    assert pref.value(t) == parse_scalar("q^-1")


def test_transport_trivial_is_identity():
    rng = random.Random(2)
    for k in (0, 1, 2):
        phi = random_cochain(E3, OCT_CHI, k, rng)
        assert transport(phi, trivial_F(E3)) == phi


def test_transport_invertible_and_linear():
    rng = random.Random(3)
    for k in (1, 2):
        phi = random_cochain(E3, OCT_CHI, k, rng)
        psi = random_cochain(E3, OCT_CHI, k, rng)
        assert transport_inverse(transport(phi, OCT_F), OCT_F) == phi
        lhs = transport(phi + psi, OCT_F)
        assert lhs == transport(phi, OCT_F) + transport(psi, OCT_F)


def test_transport_group_mismatch():
    phi = CyclicCochain.zero(GroupSpec((2,)), (1,), 1)
    with pytest.raises(SpecMismatch):
        transport(phi, OCT_F)


def test_conjugation_preserves_kernels():
    # transported character stays lambda-invariant and b-closed
    from quasicyc.calculus import character_closed

    spec = OCT.calculus()
    phi = CyclicCochain(
        E3, OCT_CHI, 3, [character_closed(spec, "general", t) for t in full_tuples(E3, 3)]
    )
    phi_F = transport(phi, OCT_F)
    assert (apply_lambda_twisted(phi_F, OCT_F) - phi_F).is_zero()
    assert apply_b_twisted(phi_F, OCT_F).is_zero()
    # and the twisted character value matches the direct evaluation
    u, v, w, uvw = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)
    assert phi_F.value((uvw, u, v, w)) == Scalar.rational(-8)


def test_intertwining_random():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(0, 2)
        phi = random_cochain(E3, OCT_CHI, k, rng)
        lhs = apply_b_twisted(transport(phi, OCT_F), OCT_F)
        rhs = transport(apply_b(phi), OCT_F)
        assert (lhs - rhs).is_zero()


def test_verify_transport_octonion(monkeypatch):
    built = []
    init = TransportPrefactor.__init__

    def counting_init(self, F):
        built.append(F)
        init(self, F)

    monkeypatch.setattr(TransportPrefactor, "__init__", counting_init)
    cert = verify_transport(
        OCT_F, OCT_CHI, E3, 2, calculus=OCT.calculus(), preset="octonion"
    )
    # parts (a)-(d) share one prefactor memo
    assert built == [OCT_F]
    assert certificate_ok(cert)
    names = {row["name"]: row["status"] for row in cert["identities"]}
    assert names["transport_intertwines_b"] == "pass"
    assert names["character_transport"] == "pass"
    assert names["conjugated_face_face"] == "pass"
    # octonion F is not a 2-cocycle: inner faces differ by associator
    # factors once the support constraint no longer kills the determinant
    assert names["direct_faces_degree_1"] == "agree"
    assert names["direct_faces_degree_2"] == "disagree"
    assert cert["preset"] == "octonion"
    assert cert["timestamp"] == "1970-01-01T00:00:00Z"


def test_verify_transport_torus():
    tor = builtin("torus")
    cert = verify_transport(
        tor.cochain(), (), tor.group, 2,
        calculus=tor.calculus(), window=3, samples=25, preset="torus",
    )
    assert certificate_ok(cert)
    names = {row["name"]: row["status"] for row in cert["identities"]}
    assert names["character_transport"] == "pass"
    # torus F is a 2-cocycle: the direct evaluators agree everywhere
    for k in range(3):
        assert names[f"direct_faces_degree_{k}"] == "agree"
        assert names[f"direct_lambda_degree_{k}"] == "agree"


def test_free_group_tables_stay_empty():
    from quasicyc.cyclic import _chi_table, _mul_table

    tor = builtin("torus")
    F = tor.cochain()
    for seed in range(20):
        cert = verify_transport(F, (), tor.group, 2, window=2, samples=20, seed=seed)
        assert certificate_ok(cert)
    # the process-wide caches hold one stateless product object per free
    # group, not a dict of every product computed so far, and a character
    # table keyed by the torsion coordinates: one entry on Z^2
    table = _mul_table(GroupSpec((), 2))
    assert not isinstance(table, dict) and not hasattr(table, "__dict__")
    assert table._group == GroupSpec((), 2)
    assert table[(1, -2), (3, 5)] == (4, 3)
    assert len(_chi_table(GroupSpec((), 2), ())) == 1


def test_verify_transport_infinite_needs_window():
    tor = builtin("torus")
    with pytest.raises(InfiniteGroup):
        verify_transport(tor.cochain(), (), tor.group, 1)


def test_twisted_cohomology_matches_untwisted():
    Z2 = GroupSpec((2,))
    F = Cochain2.from_expr(Z2, ("root_of_unity", 2), "i1*j1")
    for which in ("hh", "hc"):
        plain = cohomology_dims(Z2, (1,), 2, which)
        twisted = cohomology_dims(Z2, (1,), 2, which, twist=F)
        assert [r["dim"] for r in plain] == [r["dim"] for r in twisted]


# -- a twist on another group ----------------------------------------------------

Z2, Z3 = GroupSpec((2,)), GroupSpec((3,))
Z3_F = Cochain2.from_expr(Z3, ("root_of_unity", 3), "i1*j1")


def test_cohomology_dims_rejects_a_twist_on_another_group():
    with pytest.raises(SpecMismatch):
        cohomology_dims(Z2, (1,), 1, "hh", twist=Z3_F)


def test_apply_b_twisted_rejects_a_twist_on_another_group():
    phi = CyclicCochain.basis(Z2, (1,), 1, 1)
    with pytest.raises(SpecMismatch):
        apply_b_twisted(phi, Z3_F)


def test_apply_lambda_twisted_rejects_a_twist_on_another_group():
    phi = CyclicCochain.basis(Z2, (1,), 1, 1)
    with pytest.raises(SpecMismatch):
        apply_lambda_twisted(phi, Z3_F)


# -- the prefactor's per-degree lists ----------------------------------------------

# not a 2-cocycle, and P != P^{-1} at some tuples
Z3_NONCOCYCLE_F = Cochain2.from_expr(Z3, ("root_of_unity", 3), "i1*i1*j1")


@pytest.mark.parametrize("F", [OCT_F, Z3_NONCOCYCLE_F], ids=["octonion", "z3_noncocycle"])
def test_prefactor_lists_equal_pointwise_values(F):
    # the list of P, and the twisted store's entries of P and P^{-1}
    pref = TransportPrefactor(F)
    store = OperatorCache(F.group, (0,) * F.group.rank, F)
    for k in range(4):
        tuples = full_tuples(F.group, k)
        values = pref.values(k)
        assert values == [TransportPrefactor(F).value(t) for t in tuples]
        assert store._prefactor_entries(k) == [entry(p, store.N) for p in values]
        assert store._prefactor_entries(~k) == [
            entry(TransportPrefactor(F).inverse_value(t), store.N) for t in tuples]
        assert pref.values(k) is values
    if F is Z3_NONCOCYCLE_F:
        assert store._prefactor_entries(2) != store._prefactor_entries(~2)


def test_transport_inverse_undoes_a_noncocycle_transport():
    rng = random.Random(5)
    for k in range(4):
        phi = random_cochain(Z3, (1,), k, rng)
        moved = transport(phi, Z3_NONCOCYCLE_F)
        if k >= 2:
            assert moved != phi
        assert transport_inverse(moved, Z3_NONCOCYCLE_F) == phi


def test_transport_inverse_rejects_a_twist_on_another_group():
    with pytest.raises(SpecMismatch):
        transport_inverse(CyclicCochain.basis(Z2, (1,), 1, 1), Z3_F)
