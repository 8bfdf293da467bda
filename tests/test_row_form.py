"""Stored row sets in linalg's integer form against the Unit-row readers
they replaced (tests/unit_rows_reference.py).

The store's row set of every operator, plain and twisted, is the Unit rows
it held before, read by linalg.row_set; and rank, rank_kernel, apply_rows
and composite_witness on it equal the reference kernels on those Unit
rows.  The (group, chi, twist) families are every character of each slot
of the dims and certs generators (perfbench/gen.py, read only) with a twist
drawn by its twist_expr, at the slot's degree, and the z5_table golden
preset, whose twist has values that are no monomials.

Planted bugs: one twisted code off by one fails the transport
certificate's intertwining row and the closed-form check of twisted dims
(test_reference_dims.closed_form_rows); a column outside the row set is
rejected where rows are converted or built.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import unit_rows_reference as ref
from quasicyc import cyclic
from quasicyc.cochains import Cochain2
from quasicyc.cyclic import OperatorCache, cohomology_dims, operators, space_dim
from quasicyc.groups import GroupSpec
from quasicyc.linalg import RowSet, apply_rows, composite_witness, rank, rank_kernel, row_set, table_rows
from quasicyc.presets import load
from quasicyc.scalars import Scalar
from quasicyc.twist import verify_transport
from test_reference_dims import closed_form_rows

ROOT = Path(__file__).resolve().parent.parent


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _gen()


def _chis(orders, order=None):
    return [w for w in GEN._weights(orders) if order is None or GEN.weight_order(orders, w) == order]


def _twist(orders, twist_order, chi):
    expr = GEN.twist_expr(random.Random(f"{orders}{chi}"), orders, twist_order, cubic=True)
    return Cochain2.from_expr(GroupSpec(orders), ("root_of_unity", twist_order), expr)


def _draws():
    """(group, chi, twist, degree): each character of a dims slot's order,
    and every character of a certs slot's group at its highest mixed or
    twist degree."""
    out = {}
    for orders, chi_order, degree, twist_order, _ in GEN.DIMS_SLOTS:
        for chi in _chis(orders, chi_order):
            out[orders, chi, "dims"] = (twist_order, degree)
    for orders, twist_order, _, jobs in GEN.CERTS_SLOTS:
        degree = max(job[1] if job[0] == "mixed" else job[2] for job in jobs
                     if job[0] == "mixed" or job[:2] == ("cli", "twist"))
        for chi in _chis(orders):
            out[orders, chi, "certs"] = (twist_order, min(degree, 3))
    return [
        pytest.param(GroupSpec(orders), chi, twist_order, degree, id=f"{kind}-{orders}-{chi}")
        for (orders, chi, kind), (twist_order, degree) in out.items()
    ]


def _vectors(n, N, rng):
    """An int vector and a Q(zeta_N) one, each with zeros."""
    ints = [rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
    z = Scalar.root_of_unity(N, 1)
    field = [rng.choice((Scalar.zero(), Scalar.one(), z, z * z + Scalar.rational(1, 2))) for _ in range(n)]
    return ints, field


def _check_family(group, chi, twist, degree):
    rng = random.Random(f"{group.cyclic_orders}{chi}{degree}")
    for tw in (None, twist):
        store = operators(group, chi, tw)
        units = {}
        for op, shift in OperatorCache.OPS.items():
            for k in range(1 if op == "B" else 0, degree + 1):
                n = space_dim(group, k)
                rows, unit = store.rows(op, k), ref.stored_rows(group, chi, op, k, tw)
                units[op, k] = unit
                assert rows == row_set(unit, n, store.N), (op, k)
                assert rank(rows) == ref.rank(unit, n), (op, k)
                for vec in _vectors(n, store.N, rng):
                    zero = 0 if vec[0].__class__ is int else Scalar.zero()
                    assert apply_rows(rows, vec, zero) == ref.apply_rows(unit, vec, zero), (op, k)
        for k in range(degree + 1):
            n = space_dim(group, k)
            stacked = store.rows("lambda_minus_id", k) + store.rows("b", k)
            assert rank_kernel(stacked) == ref.rank_kernel(units["lambda_minus_id", k] + units["b", k], n)
        # the mixed laws, a composite that does not vanish, and b^F T = T b
        rows = store.rows
        for k in range(degree):
            n = space_dim(group, k)
            cases = [
                ([(1, rows("b", k + 1), rows("b", k))], [(1, units["b", k + 1], units["b", k])]),
                ([(1, rows("N", k), rows("lambda", k)), (-1, rows("N", k), None)],
                 [(1, units["N", k], units["lambda", k]), (-1, units["N", k], None)]),
                ([(1, rows("N", k), rows("N", k))], [(1, units["N", k], units["N", k])]),
            ]
            if k >= 1:
                cases.append((
                    [(1, rows("b", k - 1), rows("B", k)), (1, rows("B", k + 1), rows("b", k))],
                    [(1, units["b", k - 1], units["B", k]), (1, units["B", k + 1], units["b", k])],
                ))
            if tw is not None:
                pref = store.prefactor
                T = [[[(i, p)] for i, p in enumerate(pref.values(j))] for j in (k, k + 1)]
                plain = operators(group, chi).rows("b", k)
                stored_T = [row_set(t, space_dim(group, j), store.N) for t, j in zip(T, (k, k + 1))]
                cases.append((
                    [(1, rows("b", k), stored_T[0]), (-1, stored_T[1], plain)],
                    [(1, units["b", k], T[0]), (-1, T[1], ref.stored_rows(group, chi, "b", k))],
                ))
            for terms, unit_terms in cases:
                assert composite_witness(terms) == ref.composite_witness(unit_terms, n)


@pytest.mark.parametrize("group, chi, twist_order, degree", _draws())
def test_stored_rows_match_the_unit_row_reference(group, chi, twist_order, degree):
    _check_family(group, chi, _twist(group.cyclic_orders, twist_order, chi), degree)


def test_z5_table_rows_match_the_unit_row_reference():
    pre = load(str(ROOT / "tests" / "golden" / "z5_table_preset.json"))
    group, chi, F = pre.group, pre.ribbon_weight(), pre.cochain()
    twisted = operators(group, chi, F).rows("b", 1)
    assert any(e.__class__ is tuple for row in twisted for e in row.values())
    _check_family(group, chi, F, 2)


def test_a_store_fixes_its_field_once_and_lazily():
    grp = GroupSpec((4,))
    assert OperatorCache(grp, (2,)).N == 1
    assert OperatorCache(grp, (1,)).N == 4
    F = Cochain2.from_expr(grp, ("root_of_unity", 4), "i1*j1")
    store = OperatorCache(grp, (2,), F)
    assert store._N is None
    assert store.rows("b", 1).N == store.N == 4
    assert operators(grp, (2,)).rows("b", 1).N == 1
    # a Laurent twist on the torus: the store is made, and never fixes N
    torus = GroupSpec((), 2)
    laurent = Cochain2.from_expr(torus, ("laurent",), "i1*j2")
    assert OperatorCache(torus, (), laurent).prefactor.F is laurent


# -- planted bugs ----------------------------------------------------------------

Z3 = GroupSpec((3,))
Z3_TWIST = Cochain2.from_expr(Z3, ("root_of_unity", 3), "i1*j1*j1 + i1*j1")


def _off_by_one(monkeypatch):
    """Every twisted row set with a unit entry gets the code of its first
    one off by one: z^e becomes z^(e+1), z = zeta_6, another unit of
    Q(zeta_3)."""
    orig = cyclic.conjugated

    def shifted(rows, left, right, N):
        out = orig(rows, left, right, N)
        rows = RowSet([dict(r) for r in out], out.N, out.n, out.dens)
        first = next(((i, col) for i, r in enumerate(rows) for col, e in r.items() if e.__class__ is int), None)
        if first is not None:
            i, col = first
            rows[i][col] = (rows[i][col] + 1) % (2 * N)
        return rows

    monkeypatch.setattr(cyclic, "conjugated", shifted)
    cyclic._operator_store.cache_clear()


@pytest.fixture
def fresh_stores():
    cyclic._operator_store.cache_clear()
    yield
    cyclic._operator_store.cache_clear()


def test_a_twisted_code_off_by_one_fails_the_intertwining(monkeypatch, fresh_stores):
    row = {r["name"]: r for r in verify_transport(Z3_TWIST, (1,), Z3, 2)["identities"]}
    assert row["transport_intertwines_b"]["status"] == "pass"
    _off_by_one(monkeypatch)
    row = {r["name"]: r for r in verify_transport(Z3_TWIST, (1,), Z3, 2)["identities"]}
    assert row["transport_intertwines_b"]["status"] == "fail"


@pytest.mark.parametrize("which", ["hh", "hc"])
def test_a_twisted_code_off_by_one_fails_the_closed_form(monkeypatch, fresh_stores, which):
    expected = closed_form_rows((3,), (1,), 3, which)
    assert cohomology_dims(Z3, (1,), 3, which, twist=Z3_TWIST) == expected
    _off_by_one(monkeypatch)
    assert cohomology_dims(Z3, (1,), 3, which, twist=Z3_TWIST) != expected
    # the plain rows are untouched
    assert cohomology_dims(Z3, (1,), 3, which) == expected


@pytest.mark.parametrize("col", [3, 7, -1])
def test_a_column_outside_the_row_set_is_rejected(col):
    with pytest.raises(ValueError, match="outside"):
        row_set([[(0, 1)], [(col, 1)]], 3)
    with pytest.raises(ValueError, match="outside"):
        table_rows([((0, col), [0, 0])], 1, 3)
