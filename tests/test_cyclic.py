import random

import pytest

import dims_reference
from quasicyc.cochains import braiding_R
from quasicyc.cyclic import (
    CyclicCochain,
    DegreeTooLow,
    IndexOutOfRange,
    apply_B,
    apply_N,
    apply_S,
    apply_b,
    apply_degeneracy,
    apply_extra_degeneracy,
    apply_face,
    apply_lambda,
    cohomology_dims,
    full_tuples,
    identity_suite,
    mixed_complex_report,
    periodicity_report,
    space_dim,
)
from quasicyc.groups import GroupSpec, InfiniteGroup
from quasicyc.linalg import LaurentScalars
from quasicyc.presets import builtin
from quasicyc.scalars import Scalar
from sampled_reference import random_cochain

Z2 = GroupSpec((2,))
Z22 = GroupSpec((2, 2))
E3 = GroupSpec((2, 2, 2))
TRIV = (0,)
SIGN = (1,)


def rand_cochain(group, chi, degree, seed):
    return random_cochain(group, chi, degree, random.Random(seed))


def test_dimensions():
    assert space_dim(Z2, 0) == 1
    assert [space_dim(E3, k) for k in range(5)] == [1, 8, 64, 512, 4096]


def test_support_and_value():
    phi = CyclicCochain(Z2, SIGN, 1, [Scalar.rational(2), Scalar.rational(5)])
    e, g = (0,), (1,)
    assert phi.value((e, e)) == Scalar.rational(2)
    assert phi.value((g, g)) == Scalar.rational(5)
    # off-support tuples evaluate to zero
    assert phi.value((e, g)).is_zero()
    with pytest.raises(ValueError):
        phi.value((e,))


def test_face_hand_values():
    # degree 0 -> 1 over Z2 with sign character
    phi = CyclicCochain(Z2, SIGN, 0, [Scalar.rational(3)])
    e, g = (0,), (1,)
    d0 = apply_face(phi, 0)
    assert d0.value((e, e)) == Scalar.rational(3)
    assert d0.value((g, g)) == Scalar.rational(3)
    # top face picks up chi(g1)
    d1 = apply_face(phi, 1)
    assert d1.value((e, e)) == Scalar.rational(3)
    assert d1.value((g, g)) == Scalar.rational(-3)
    with pytest.raises(IndexOutOfRange):
        apply_face(phi, 2)


def test_lambda_hand_values():
    phi = CyclicCochain(Z2, SIGN, 1, [Scalar.rational(2), Scalar.rational(5)])
    e, g = (0,), (1,)
    lam = apply_lambda(phi)
    # (lambda phi)(g0,g1) = -chi(g1) phi(g1,g0)
    assert lam.value((e, e)) == Scalar.rational(-2)
    assert lam.value((g, g)) == Scalar.rational(5)
    assert apply_lambda(lam) == phi


def test_degeneracy_and_section():
    with pytest.raises(DegreeTooLow):
        apply_degeneracy(CyclicCochain.zero(Z2, SIGN, 0), 0)
    with pytest.raises(IndexOutOfRange):
        apply_degeneracy(rand_cochain(Z2, SIGN, 2, 0), 2)
    # s_i d_i = id and s_i d_{i+1} = id on random cochains
    for seed in range(3):
        for k in (1, 2):
            phi = rand_cochain(Z22, SIGN + SIGN, k, seed)
            for i in range(k):
                assert apply_degeneracy(apply_face(phi, i), i) == phi
                assert apply_degeneracy(apply_face(phi, i + 1), i) == phi


def test_identity_suite_small():
    for rep in identity_suite(Z2, SIGN, 3):
        assert rep.holds, str(rep)
    for rep in identity_suite(Z22, (0, 0), 2):
        assert rep.holds, str(rep)


def test_simplicial_and_cyclic_relations_random():
    rng = random.Random(1)
    for _ in range(10):
        k = rng.randint(0, 3)
        phi = rand_cochain(Z2, SIGN, k, rng.randint(0, 10 ** 6))
        assert apply_b(apply_b(phi)).is_zero()
        lam = phi
        for _ in range(k + 1):
            lam = apply_lambda(lam)
        assert lam == phi
        assert (apply_N(apply_lambda(phi)) - apply_N(phi)).is_zero()


def test_mixed_complex_relations():
    rng = random.Random(7)
    groups = [(Z2, SIGN), (Z22, (1, 1))]
    for group, chi in groups:
        for _ in range(6):
            k = rng.randint(1, 3)
            phi = rand_cochain(group, chi, k, rng.randint(0, 10 ** 6))
            if k >= 2:
                assert apply_B(apply_B(phi)).is_zero()
            anti = apply_b(apply_B(phi)) + apply_B(apply_b(phi))
            assert anti.is_zero()


def test_extra_degeneracy_shape():
    # s_{-1} on C^1 over Z2: (s_{-1}phi)(g0) = -phi(e, g0) with trivial chi
    phi = CyclicCochain(Z2, TRIV, 1, [Scalar.rational(2), Scalar.rational(5)])
    out = apply_extra_degeneracy(phi)
    assert out.degree == 0
    assert out.value(((0,),)) == Scalar.rational(-2)
    with pytest.raises(DegreeTooLow):
        apply_extra_degeneracy(out)


def test_periodicity_operator():
    # S lands two degrees up and scales by -1/(n(n+1))
    phi = rand_cochain(Z2, SIGN, 1, 3)
    out = apply_S(phi)
    assert out.degree == 3
    # on a lambda-invariant b-cocycle the image is again one
    oct_chi = (1, 1, 1)
    proj = None
    for idx in range(space_dim(E3, 1)):
        cand = CyclicCochain.basis(E3, oct_chi, 1, idx)
        sym = apply_N(cand)
        if apply_b(sym).is_zero() and not sym.is_zero():
            proj = sym
            break
    if proj is not None:
        img = apply_S(proj)
        assert (apply_lambda(img) - img).is_zero()
        assert apply_b(img).is_zero()


def test_octonion_character_is_cyclic_cocycle():
    # the degree-3 character over E3 with the product weight
    from quasicyc.calculus import character_closed

    preset = builtin("octonion")
    spec = preset.calculus()
    chi = preset.ribbon_weight()
    phi = CyclicCochain(
        E3, chi, 3, [character_closed(spec, "general", t) for t in full_tuples(E3, 3)]
    )
    assert not phi.is_zero()
    assert (apply_lambda(phi) - phi).is_zero()
    assert apply_b(phi).is_zero()


def test_cohomology_z2_trivial():
    dims = cohomology_dims(Z2, TRIV, 2, "hh")
    assert dims[0]["dim"] == 1
    dims_c = cohomology_dims(Z2, TRIV, 2, "hc")
    assert dims_c[0]["dim"] == 1
    for row in dims + dims_c:
        assert set(row) == {"degree", "dim_C", "rank_b_in", "rank_b_out", "dim"}
        assert row["dim"] >= 0


def test_cohomology_errors():
    with pytest.raises(InfiniteGroup):
        cohomology_dims(GroupSpec((), free_rank=1), (), 1, "hh")
    with pytest.raises(ValueError):
        cohomology_dims(Z2, TRIV, 1, "hodge")
    with pytest.raises(InfiniteGroup):
        CyclicCochain.zero(GroupSpec((2,), free_rank=1), (1,), 1)


@pytest.mark.parametrize("report", [
    lambda: mixed_complex_report(Z2, SIGN, -1),
    lambda: identity_suite(Z2, SIGN, -1),
    lambda: periodicity_report(Z2, SIGN, -1),
    lambda: cohomology_dims(Z2, SIGN, -1, "hh"),
])
def test_negative_degree_max_rejected(report):
    with pytest.raises(DegreeTooLow):
        report()


def test_json_round_trip():
    phi = rand_cochain(Z22, (1, 0), 2, 11)
    data = phi.to_json()
    back = CyclicCochain.from_json(data)
    assert back == phi
    assert all(not Scalar.zero().to_text() == e[1] for e in data["entries"])


def test_braided_symmetry_of_character():
    # lambda-invariance encodes chi-twisted cyclicity of the trace form
    preset = builtin("octonion")
    F = preset.cochain()
    R = braiding_R(F)
    g, h = (1, 0, 0), (0, 1, 0)
    assert R.value(g, h) == Scalar.rational(-1)


def test_operator_cache_matches_direct_apply():
    from quasicyc.cyclic import OperatorCache, apply_rows

    rng = random.Random(13)
    ops = OperatorCache(Z22, (1, 0))

    def stored(op, phi):
        vec = apply_rows(ops.rows(op, phi.degree), phi.vec, Scalar.zero())
        return CyclicCochain(Z22, (1, 0), phi.degree + ops.OPS[op], vec)

    for k in (1, 2):
        phi = random_cochain(Z22, (1, 0), k, rng)
        assert stored("b", phi) == apply_b(phi)
        assert stored("B", phi) == apply_B(phi)
        assert stored("N", phi) == apply_N(phi)
        assert stored("lambda", phi) == apply_lambda(phi)


def test_mixed_complex_report():
    from quasicyc.cyclic import mixed_complex_report

    for chi in (TRIV, SIGN):
        reps = mixed_complex_report(Z2, chi, 2, count=10, seed=1)
        assert [r.law for r in reps] == ["b_squared", "B_squared", "bB_plus_Bb", "N_lambda"]
        for rep in reps:
            assert rep.holds, str(rep)


def test_periodicity_report():
    from quasicyc.cyclic import periodicity_report

    for rep in periodicity_report(Z2, SIGN, 2):
        assert rep.holds, str(rep)


@pytest.mark.parametrize("group, chi, op, units", [
    (Z22, (1, 1), "b", True),
    (GroupSpec((4,)), (1,), "lambda", False),
    (GroupSpec((4,)), (1,), "b", False),
])
def test_apply_rows_streamed_stored_int_scalar(group, chi, op, units):
    from quasicyc.cyclic import OperatorCache, apply_rows, b_atoms, lambda_pull
    from quasicyc.linalg import row_set
    from unit_rows_reference import atom_rows

    k = 2
    if op == "b":
        atoms, out_degree = b_atoms(group, chi, k), k + 1
    else:
        atoms, out_degree = [(1, (lambda_pull(group, chi, k),))], k
    rng = random.Random(17)
    ints = [rng.randint(-3, 3) for _ in range(space_dim(group, k))]
    scalars = [Scalar.rational(x) for x in ints]
    stored = OperatorCache(group, chi).rows(op, k)
    assert stored == row_set(atom_rows(group, atoms, out_degree), space_dim(group, k), stored.N)

    int_out = apply_rows(stored, ints, 0)
    assert int_out == dims_reference.apply_rows(atom_rows(group, atoms, out_degree), ints, 0)
    scalar_out = apply_rows(stored, scalars, Scalar.zero())
    assert scalar_out == dims_reference.apply_rows(
        atom_rows(group, atoms, out_degree), scalars, Scalar.zero())
    assert all(isinstance(v, Scalar) for v in scalar_out)
    assert len(int_out) == len(scalar_out) == space_dim(group, out_degree)
    for a, b in zip(int_out, scalar_out):
        assert a == b
    if units:
        assert all(type(v) is int for v in int_out)
    else:
        assert any(isinstance(v, Scalar) and not v.is_rational() for v in int_out)


def test_sample_tuples():
    from quasicyc.cyclic import full_tuples, sample_tuples

    # finite groups are exhaustive, window or not
    assert sample_tuples(Z22, 2, 3, 5, 0) == list(full_tuples(Z22, 2))
    assert sample_tuples(Z22, 2, None, 5, 0) == list(full_tuples(Z22, 2))
    rep = identity_suite(Z2, SIGN, 1, window=2)[0]
    assert rep.domain == "pointwise, degrees <= 1"

    torus = builtin("torus").group
    ts = sample_tuples(torus, 2, 2, 7, 3)
    assert ts == sample_tuples(torus, 2, 2, 7, 3)
    assert ts[0] == ((0, 0),) * 3 and len(ts) == 8
    for t in ts:
        assert torus.is_identity(torus.mul_all(t))
        assert all(abs(c) <= 2 for g in t[1:] for c in g)
    with pytest.raises(InfiniteGroup):
        sample_tuples(torus, 2, None, 7, 3)
    rep = identity_suite(torus, (), 1, window=2, samples=7)[0]
    assert rep.domain == "pointwise, degrees <= 1, window(2) x7"
