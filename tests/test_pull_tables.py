"""Pullback tables on finite groups against the per-tuple code they
replaced.  The store's rows of every operator equal the rows of the
pull-based atom_rows (dims_reference) entry for entry, +-1 as ints and
Units otherwise; the finite-group identity_suite equals
pointwise_reference.identity_suite, counterexamples included, with no
wrap, under conjugation and under a planted sign slip."""

import pytest

import dims_reference
import pointwise_reference as ref
from composite_reference import compose_rows
from quasicyc import cyclic
from quasicyc.cochains import Cochain2
from quasicyc.cyclic import (
    OperatorCache,
    _chi_table,
    identity_suite,
    operators,
    space_dim,
)
from quasicyc.groups import GroupSpec
from quasicyc.linalg import rank_kernel
from quasicyc.scalars import Unit
from quasicyc.twist import conjugator

Z2 = GroupSpec((2,))

# (group, nontrivial chi, highest input degree)
ROW_CASES = [
    (Z2, (1,), 5),
    (GroupSpec((3,)), (1,), 3),
    (GroupSpec((4,)), (1,), 3),
    (GroupSpec((6,)), (1,), 3),
    (GroupSpec((2, 2)), (1, 1), 3),
    (GroupSpec((2, 4)), (1, 1), 3),
    (GroupSpec((2, 2, 2)), (1, 0, 1), 3),
]
ROW_PARAMS = [
    pytest.param(group, chi, dmax, id=f"{group.cyclic_orders}-{kind}")
    for group, weight, dmax in ROW_CASES
    for kind, chi in (("trivial", (0,) * group.rank), ("chi", weight))
]


def _atoms(group, chi, op, k):
    """The atoms of op on C^k, as OperatorCache.rows reads them."""
    if op == "b":
        return cyclic.b_atoms(group, chi, k)
    if op == "B":
        return cyclic.B_atoms(group, chi, k)
    if op == "N":
        return cyclic.n_atoms(group, chi, k)
    if op == "lambda":
        return [(1, (cyclic.lambda_pull(group, chi, k),))]
    if op == "lambda_minus_id":
        return cyclic.lambda_minus_id_atoms(group, chi, k)
    return cyclic.s_atoms(group, chi, k)


def _types(rows):
    return [[type(c) for _, c in row] for row in rows]


@pytest.mark.parametrize("group, chi, dmax", ROW_PARAMS)
def test_store_rows_equal_pulled_rows(group, chi, dmax):
    store = OperatorCache(group, chi)
    units = 0
    for op, shift in OperatorCache.OPS.items():
        for k in range(1 if op == "B" else 0, dmax + 1):
            want = list(dims_reference.atom_rows(group, _atoms(group, chi, op, k), k + shift))
            got = store.rows(op, k)
            assert got == want, (op, k)
            assert _types(got) == _types(want), (op, k)
            assert len(got) == space_dim(group, k + shift)
            units += sum(t is Unit for row in _types(got) for t in row)
    # a character with a value other than +-1 puts Units into the rows
    assert (units > 0) == any(v not in (1, -1) for v in _chi_table(group, chi).values())


def test_elimination_and_composition_leave_tables_intact():
    grp, chi = GroupSpec((4,)), (1,)
    store = operators(grp, chi)
    identity_suite(grp, chi, 2)
    rows = {(op, k): store.rows(op, k) for op in OperatorCache.OPS for k in range(1, 3)}
    tables = dict(store.tables)
    assert tables
    before = {key: [list(r) for r in rs] for key, rs in rows.items()}
    rank_kernel(rows["b", 2] + rows["lambda_minus_id", 2], 16)
    rank_kernel(rows["B", 2], 16)
    compose_rows(rows["b", 2], rows["b", 1])
    compose_rows(rows["N", 2], rows["lambda", 2])
    compose_rows(rows["B", 2], rows["b", 1])
    assert identity_suite(grp, chi, 2) == ref.identity_suite(grp, chi, 2)
    assert store.tables.keys() == tables.keys()
    assert all(store.tables[key] is table for key, table in tables.items())
    assert {key: [list(r) for r in store.rows(*key)] for key in rows} == before


def test_character_value_one_is_the_shared_unit():
    assert _chi_table(GroupSpec((2, 2)), (1, 0))[(0, 0)] is Unit.one()
    assert _chi_table(GroupSpec((2, 2)), (1, 0))[(0, 1)] is Unit.one()
    assert _chi_table(GroupSpec((4,)), (2,))[(2,)] is Unit.one()
    assert Unit.root_of_unity(6, 12) is Unit.one()
    assert Unit.root_of_unity(6, 2) == Unit(1, 6, 2)


def _slip(group):
    """A wrap that negates each coefficient at output tuples whose first
    entry is not the identity."""
    e = group.identity()

    def wrap(pull):
        def slipped(t):
            t_in, c = pull(t)
            return (t_in, c) if t[0] == e else (t_in, -c)
        return slipped

    return wrap


# (group, chi, twist expression, degree_max)
SUITE_CASES = [
    (Z2, (1,), "i1*j1", 4),
    (GroupSpec((4,)), (1,), "i1*i1*j1", 3),
    (GroupSpec((2, 2)), (1, 0), "i1*j2 + 3*i2*i2*j1", 3),
    (GroupSpec((2, 4)), (1, 1), "i1*j2 + i2*i2*j2", 2),
    (GroupSpec((2, 2, 2)), (0, 1, 1), "i1*j2 + i2*j3 + i3*j1", 2),
]


@pytest.mark.parametrize("group, chi, expr, dmax", SUITE_CASES,
                         ids=[str(c[0].cyclic_orders) for c in SUITE_CASES])
def test_finite_suite_matches_reference(group, chi, expr, dmax):
    F = Cochain2.from_expr(group, ("root_of_unity", group.exponent), expr)
    for wrap, holds in ((None, True), (conjugator(F), True), (_slip(group), False)):
        reports = identity_suite(group, chi, dmax, wrap=wrap)
        assert reports == ref.identity_suite(group, chi, dmax, wrap=wrap)
        assert all(rep.holds for rep in reports) == holds
        assert all((rep.counterexample is None) == rep.holds for rep in reports)
