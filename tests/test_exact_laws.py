"""The exact mixed-complex and transport laws, decided on composite operator
rows, against the sampled checks they replaced (sampled_reference), and
under planted bugs that each law must catch, with the counterexamples of
the Scalar row composition (composite_reference).  lambda^(k+1) = id is decided
by identity_suite alone, so its planted bug is checked there."""

import ast
import random
import re

import pytest

from quasicyc import cyclic
from quasicyc.cochains import Cochain2
from quasicyc.cyclic import (
    OperatorCache,
    apply_rows,
    cohomology_dims,
    full_tuples,
    identity_suite,
    mixed_complex_report,
    operators,
    space_dim,
)
from quasicyc.groups import GroupSpec
from quasicyc.linalg import rank
from quasicyc.presets import builtin
from quasicyc.scalars import Scalar
from quasicyc.twist import TransportPrefactor, certificate_ok, verify_transport
from composite_reference import compose_rows, mixed_counterexamples
from sampled_reference import (
    MIXED_LAWS,
    sampled_mixed_complex_report,
    sampled_transport_intertwines_b,
)

OCT = builtin("octonion")
OCT_F = OCT.cochain()
OCT_CHI = OCT.ribbon_weight()
E3 = GroupSpec((2, 2, 2))

# (group, degree_max, {character kind: weight})
CASES = [
    (GroupSpec((2,)), 4, {"trivial": (0,), "sign": (1,)}),
    (GroupSpec((2, 2)), 3, {"trivial": (0, 0), "sign": (1, 1)}),
    (E3, 2, {"trivial": (0, 0, 0), "sign": (1, 0, 1)}),
    (GroupSpec((4,)), 3, {"trivial": (0,), "sign": (2,), "cyclotomic": (1,)}),
    (GroupSpec((6,)), 2, {"trivial": (0,), "sign": (3,), "cyclotomic": (1,)}),
]
PARAMS = [
    pytest.param(group, dmax, chi, id=f"{group.cyclic_orders}-{kind}")
    for group, dmax, chis in CASES
    for kind, chi in chis.items()
]


@pytest.mark.parametrize("group, dmax, chi", PARAMS)
def test_exact_mixed_report_agrees_with_sampled(group, dmax, chi):
    exact = mixed_complex_report(group, chi, dmax)
    sampled = sampled_mixed_complex_report(group, chi, dmax, count=8, seed=3)
    # the sampled reference also drew lambda_order, now identity_suite's alone
    laws = [law for law in MIXED_LAWS if law != "lambda_order"]
    assert [r.law for r in exact] == laws
    assert [(r.law, r.holds) for r in exact] == [(r.law, r.holds) for r in sampled if r.law in laws]
    assert all(r.holds for r in exact)
    assert exact[0].domain == f"exact: every cochain, degrees <= {dmax}"


def test_exact_report_ignores_count_and_seed():
    group = GroupSpec((4,))
    base = mixed_complex_report(group, (1,), 2)
    assert mixed_complex_report(group, (1,), 2, count=3, seed=99) == base


@pytest.mark.parametrize("F, chi, group, dmax", [
    (OCT_F, OCT_CHI, E3, 2),
    (None, (1,), GroupSpec((4,)), 2),
    (None, (0, 1), GroupSpec((2, 3)), 1),
])
def test_exact_intertwining_agrees_with_sampled(F, chi, group, dmax):
    if F is None:
        F = Cochain2.from_expr(group, ("root_of_unity", group.exponent), "i1*j1")
    cert = verify_transport(F, chi, group, dmax)
    rows = {r["name"]: r["status"] for r in cert["identities"]}
    assert rows["transport_intertwines_b"] == "pass"
    assert sampled_transport_intertwines_b(F, chi, group, dmax, seed=1, count=20) is None


@pytest.mark.parametrize("group, chi, outer, inner", [
    (GroupSpec((2, 2)), (1, 1), ("b", 2), ("b", 1)),
    (GroupSpec((2, 2)), (1, 0), ("B", 2), ("b", 1)),
    (GroupSpec((4,)), (1,), ("b", 1), ("B", 2)),
    (GroupSpec((4,)), (1,), ("N", 2), ("lambda", 2)),
    (GroupSpec((6,)), (1,), ("lambda", 2), ("lambda", 2)),
])
def test_compose_rows_matches_applying_twice(group, chi, outer, inner):
    ops = OperatorCache(group, chi)
    rows_out, rows_in = ops.rows(*outer), ops.rows(*inner)
    composed = compose_rows(rows_out, rows_in)
    assert all(all(c != 0 for _, c in row) for row in composed)
    rng = random.Random(f"{group.cyclic_orders}{outer}{inner}")
    dim = space_dim(group, inner[1])
    N = group.exponent
    ints = [rng.randint(-3, 3) for _ in range(dim)]
    cyc = [
        Scalar.cyclotomic(N, [rng.randint(-2, 2) for _ in range(N)]) if N > 2
        else Scalar.rational(rng.randint(-3, 3))
        for _ in range(dim)
    ]
    for vec, zero in ((ints, 0), (cyc, Scalar.zero())):
        twice = apply_rows(rows_out, apply_rows(rows_in, vec, zero), zero)
        assert apply_rows(composed, vec, zero) == twice
    # a composite composes again: (outer after inner) after identity
    ident = [[(i, 1)] for i in range(dim)]
    assert compose_rows(composed, ident) == composed


@pytest.mark.parametrize("group, chi", [(E3, OCT_CHI), (GroupSpec((4,)), (1,))],
                         ids=["octonion", "z4"])
def test_composed_rows_go_to_rank_and_apply_rows(group, chi):
    rows = operators(group, chi).rows
    rng = random.Random(f"{group.cyclic_orders}{chi}")
    for k in range(3):
        n = space_dim(group, k)
        assert rank(compose_rows(rows("b", k + 1), rows("b", k)), n) == 0
        # N lambda = N, a composite that is not zero
        n_lambda = compose_rows(rows("N", k), rows("lambda", k))
        assert rank(n_lambda, n) == rank(rows("N", k), n) > 0
        vec = [rng.randint(-3, 3) for _ in range(n)]
        assert apply_rows(n_lambda, vec, 0) == apply_rows(rows("N", k), vec, 0)


# -- planted bugs ----------------------------------------------------------------


def _failing(reports):
    return {r.law: r.counterexample for r in reports if not r.holds}


def _reference_failing(group, chi, degree_max):
    """_failing of the report as the reference decides it by composing rows."""
    return {law: c for law, c in mixed_counterexamples(group, chi, degree_max).items() if c is not None}


def _degree_and_tuples(text):
    """(degree, output tuple, input tuple) named by a counterexample."""
    head, out, inp = re.fullmatch(r"degree (\d+) output (\(.*\)) input (\(.*\))", text).groups()
    return int(head), ast.literal_eval(out), ast.literal_eval(inp)


def test_B_sign_flip_is_caught(monkeypatch):
    orig = cyclic.B_atoms

    def flipped(group, chi, k):
        # the s_0 lambda^{-1} term gets the wrong sign
        (c, p), *rest = orig(group, chi, k)
        return [(-c, p)] + rest

    monkeypatch.setattr(cyclic, "B_atoms", flipped)
    fails = _failing(mixed_complex_report(GroupSpec((2, 2)), (1, 1), 3))
    assert {"B_squared", "bB_plus_Bb"} <= set(fails)
    assert fails == _reference_failing(GroupSpec((2, 2)), (1, 1), 3)
    k, out, inp = _degree_and_tuples(fails["B_squared"])
    assert (len(out), len(inp)) == (k - 1, k + 1)  # B^2: C^k -> C^(k-2)
    k, out, inp = _degree_and_tuples(fails["bB_plus_Bb"])
    assert len(out) == len(inp) == k + 1
    assert not all(r.holds for r in sampled_mixed_complex_report(GroupSpec((2, 2)), (1, 1), 3, count=5))


def test_swapped_face_index_is_caught(monkeypatch):
    orig = cyclic.b_atoms

    def swapped(group, chi, k):
        atoms = orig(group, chi, k)
        # d_0 and d_1 trade places, each keeping the other's sign
        (s0, p0), (s1, p1) = atoms[:2]
        return [(s0, p1), (s1, p0)] + atoms[2:]

    monkeypatch.setattr(cyclic, "b_atoms", swapped)
    fails = _failing(mixed_complex_report(GroupSpec((4,)), (1,), 2))
    assert "b_squared" in fails
    assert fails == _reference_failing(GroupSpec((4,)), (1,), 2)
    k, out, inp = _degree_and_tuples(fails["b_squared"])
    assert (len(out), len(inp)) == (k + 3, k + 1)  # b^2: C^k -> C^(k+2)
    assert "b_squared" in _failing(sampled_mixed_complex_report(GroupSpec((4,)), (1,), 2, count=5))


def test_lambda_sign_error_is_caught(monkeypatch):
    orig = cyclic.lambda_pull

    def missigned(group, chi, k):
        pull = orig(group, chi, k)
        if k % 2:
            return pull

        def wrong(t):
            t_in, c = pull(t)
            return t_in, -c

        return wrong

    monkeypatch.setattr(cyclic, "lambda_pull", missigned)
    fails = _failing(identity_suite(GroupSpec((2,)), (1,), 2))
    assert fails["lambda_order"] == ((0,),)
    assert "lambda_order" in _failing(sampled_mixed_complex_report(GroupSpec((2,)), (1,), 2, count=5))


def test_conjugator_skipping_inverse_is_caught(monkeypatch):
    pref = TransportPrefactor(OCT_F)
    # a degree-1 support tuple whose prefactor is not 1
    skipped = next(t for t in full_tuples(E3, 1) if pref.value(t) != 1)

    def broken(pref, pull):
        def wrapped(t):
            t_in, c = pull(t)
            if t_in == skipped:
                return t_in, pref.value(t) * c
            return t_in, pref.value(t) * c * pref.inverse_value(t_in)

        return wrapped

    monkeypatch.setattr(TransportPrefactor, "wrap", broken)
    cert = verify_transport(OCT_F, OCT_CHI, E3, 2)
    assert not certificate_ok(cert)
    status = {r["name"]: r["status"] for r in cert["identities"]}
    # part (a) reads the conjugated pulls; part (b) reads the twisted
    # store's rows, scaled by OperatorCache._conjugate, which the broken
    # pulls do not touch
    failed = {name for name, st in status.items() if st == "fail"}
    assert failed == {
        f"conjugated_{law}" for law in ("face_face", "deg_face", "lambda_face", "lambda_deg")
    }
    assert status["transport_intertwines_b"] == "pass"
    assert sampled_transport_intertwines_b(OCT_F, OCT_CHI, E3, 2, seed=0) is not None


def _inverse_conjugate(store, rows, out_degree, in_degree):
    """OperatorCache._conjugate with P and P^{-1} swapped: rows of P^{-1} X P."""
    pref, group = store.prefactor, store.group
    outs, ins = full_tuples(group, out_degree), full_tuples(group, in_degree)
    return [
        [(col, pref.inverse_value(outs[r]) * pref.value(ins[col]) * c) for col, c in row]
        for r, row in enumerate(rows)
    ]


def test_inverse_row_scaling_is_caught(monkeypatch):
    # on Z3 P^{-1} != P; on the octonions P = P^{-1}, so they cannot show it
    group, chi = GroupSpec((3,)), (1,)
    F = Cochain2.from_expr(group, ("root_of_unity", 3), "i1*i1*j1")
    dims = [cohomology_dims(group, chi, 3, which, twist=F) for which in ("hh", "hc")]
    monkeypatch.setattr(OperatorCache, "_conjugate", _inverse_conjugate)
    cyclic._operator_store.cache_clear()  # so the twisted store is rebuilt with the patch
    # an invertible row and column scaling keeps every rank, so dims alone
    # cannot see it ...
    assert [cohomology_dims(group, chi, 3, which, twist=F) for which in ("hh", "hc")] == dims
    # ... but part (b) reads the rows dims eliminates
    cert = verify_transport(F, chi, group, 2)
    failed = [r for r in cert["identities"] if r["status"] == "fail"]
    assert [r["name"] for r in failed] == ["transport_intertwines_b"]
    k, out, inp = _degree_and_tuples(failed[0]["counterexample"])
    assert (len(out), len(inp)) == (k + 2, k + 1)
