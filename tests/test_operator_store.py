"""The shared row store (cyclic.operators), twisting by diagonal scaling and
the stacked hc rank, against the parent code in dims_reference.

Every (group, chi) of perfbench/reference_dims.json (read only) is run
plain and under the twists zeta_N^(i1*j1), a bicharacter, and
zeta_N^(i1*i1*j1), which is not a 2-cocycle.  Ranks do not change under
any diagonal scaling, so the scaled rows are also compared entry by entry
with rows built by conjugating every atom.
"""

import ast
import gc
import json
import math
import os
import random
import weakref
from collections import defaultdict
from pathlib import Path

import pytest

import dims_reference
from quasicyc import cyclic
from quasicyc.cochains import Cochain2
from quasicyc.cyclic import (
    CyclicCochain,
    cohomology_dims,
    cyclic_cocycle_basis,
    identity_suite,
    mixed_complex_report,
    operators,
    periodicity_report,
)
from quasicyc.groups import GroupSpec, SpecMismatch
from quasicyc.linalg import rank_kernel
from quasicyc.scalars import Scalar
from quasicyc.twist import apply_b_twisted, apply_lambda_twisted, verify_transport

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference_dims.json")

with open(REFERENCE) as fh:
    TABLE = json.load(fh)

TWISTS = ("i1*j1", "i1*i1*j1")


def _parse(key):
    orders, chi, which = key.split("|")
    return (
        GroupSpec(tuple(int(m) for m in orders.split(","))),
        tuple(int(w) for w in chi.split(",")),
        which,
    )


def _twists(grp):
    N = math.lcm(*grp.cyclic_orders)
    return [Cochain2.from_expr(grp, ("root_of_unity", N), expr) for expr in TWISTS]


# (group, chi) -> highest degree the table holds for it
FAMILIES = {}
for _key, _rows in TABLE.items():
    _grp, _chi, _ = _parse(_key)
    FAMILIES[_grp, _chi] = max(FAMILIES.get((_grp, _chi), 0), len(_rows) - 1)


def _family_id(fam):
    grp, chi = fam
    return f"{','.join(map(str, grp.cyclic_orders))}|{','.join(map(str, chi))}"


@pytest.mark.parametrize("key", sorted(TABLE))
def test_dims_match_the_parent(key):
    grp, chi, which = _parse(key)
    degree = len(TABLE[key]) - 1
    assert cohomology_dims(grp, chi, degree, which) == dims_reference.cohomology_dims(
        grp, chi, degree, which)
    for F in _twists(grp):
        assert cohomology_dims(grp, chi, degree, which, twist=F) == (
            dims_reference.cohomology_dims(grp, chi, degree, which, twist=F))


@pytest.mark.parametrize("fam", sorted(FAMILIES, key=_family_id), ids=_family_id)
def test_scaled_rows_equal_conjugated_atoms(fam):
    grp, chi = fam
    for F in _twists(grp):
        rows = operators(grp, chi, F).rows
        for k in range(FAMILIES[fam] + 1):
            for op in ("b", "lambda", "lambda_minus_id"):
                assert rows(op, k) == dims_reference.conjugated_rows(grp, chi, F, op, k), (op, k)


@pytest.mark.parametrize("orders, chi", [((3,), (1,)), ((4,), (1,)), ((2, 4), (1, 2)), ((8,), (3,))])
def test_twisted_apply_matches_conjugated_atoms(orders, chi):
    grp = GroupSpec(orders)
    rng = random.Random(f"{orders}{chi}")
    for F in _twists(grp):
        for k in (0, 1):
            phi = CyclicCochain(grp, chi, k, [
                Scalar.rational(rng.randint(-3, 3)) for _ in range(cyclic.space_dim(grp, k))
            ])
            for apply, op in ((apply_b_twisted, "b"), (apply_lambda_twisted, "lambda")):
                want = dims_reference.apply_rows(
                    dims_reference.conjugated_rows(grp, chi, F, op, k), phi.vec, Scalar.zero())
                assert apply(phi, F).vec == want, (op, k)


def test_interleaved_characters_read_their_own_rows():
    """Calls alternate between the characters of one group, so a store that
    mixed up two characters would hand one of them the other's rows."""
    by_group = defaultdict(list)
    for key in sorted(TABLE):
        grp, chi, which = _parse(key)
        by_group[grp].append((chi, which, TABLE[key]))
    differs = 0
    for grp, entries in by_group.items():
        F = _twists(grp)[1]
        for twist in (None, F, None):
            for chi, which, rows in entries:
                assert cohomology_dims(grp, chi, len(rows) - 1, which, twist=twist) == rows
        differs += len({json.dumps(rows) for _, which, rows in entries if which == "hc"}) > 1
    assert differs >= 3  # the characters of a group do give different dims


@pytest.mark.parametrize("orders, chis, degree", [
    ((4,), [(0,), (1,), (2,), (3,)], 2),
    ((2, 2), [(0, 0), (1, 0), (1, 1)], 2),
    ((3,), [(0,), (1,), (2,)], 2),
])
def test_interleaved_cocycle_bases_match_the_parent(orders, chis, degree):
    grp = GroupSpec(orders)
    for _ in range(2):
        for chi in chis:
            for k in range(degree + 1):
                assert cyclic_cocycle_basis(grp, chi, k) == (
                    dims_reference.cyclic_cocycle_basis(grp, chi, k))


def test_elimination_leaves_the_store_intact():
    grp, chi = GroupSpec((4,)), (1,)
    store = operators(grp, chi)
    rows = {(op, k): store.rows(op, k) for op in ("b", "lambda_minus_id") for k in range(3)}
    before = {key: [list(r) for r in rs] for key, rs in rows.items()}
    first = [cohomology_dims(grp, chi, 2, which) for which in ("hh", "hc")]
    F = _twists(grp)[0]
    for _ in range(2):
        assert [cohomology_dims(grp, chi, 2, which) for which in ("hh", "hc")] == first
        assert [cohomology_dims(grp, chi, 2, which, twist=F) for which in ("hh", "hc")] == first
        assert rank_kernel(rows["b", 2], 16) == rank_kernel(rows["b", 2], 16)
    assert operators(grp, chi) is store
    assert {key: [list(r) for r in store.rows(*key)] for key in rows} == before


def test_store_is_keyed_by_group_and_character():
    a = operators(GroupSpec((4,)), (1,))
    assert operators(GroupSpec((4,)), (1,)) is a
    assert operators(GroupSpec((4,)), (3,)) is not a
    assert operators(GroupSpec((2, 2)), (1, 0)) is not operators(GroupSpec((2, 2)), (0, 1))
    assert cyclic._operator_store.cache_info().maxsize == 2



def _store_traffic():
    info = cyclic._operator_store.cache_info()
    return info.currsize, info.misses


def test_every_call_form_of_one_key_reaches_one_store():
    grp, chi = GroupSpec((4,)), (1,)
    store = operators(grp, chi)
    assert operators(grp, chi, None) is store
    assert operators(grp, chi, twist=None) is store
    assert operators(grp, [5]) is store  # chi as check_weight normalizes it
    # the plain readers: identity_suite's tables and the rows of the
    # reports, the dims and the plain apply functions
    identity_suite(grp, chi, 2)
    assert store.tables
    mixed_complex_report(grp, chi, 2)
    periodicity_report(grp, chi, 1)
    cohomology_dims(grp, chi, 2, "hc")
    cyclic.apply_b(CyclicCochain.basis(grp, chi, 1, 0))
    assert _store_traffic() == (1, 1)


def test_a_twisted_family_builds_one_plain_and_one_twisted_store():
    grp, chi = GroupSpec((4,)), (1,)
    F = _twists(grp)[1]
    phi = CyclicCochain.basis(grp, chi, 1, 1)
    for which in ("hh", "hc"):
        cohomology_dims(grp, chi, 2, which)
        cohomology_dims(grp, chi, 2, which, twist=F)
    apply_b_twisted(phi, F)
    apply_lambda_twisted(phi, F)
    cyclic.apply_b(phi)
    verify_transport(F, chi, grp, 2)
    assert _store_traffic() == (2, 2)
    twisted = operators(grp, chi, F)
    assert twisted is not operators(grp, chi) and twisted.prefactor.F is F


def test_a_twist_on_another_group_raises():
    F = _twists(GroupSpec((2, 2)))[0]
    for call in (
        lambda: operators(GroupSpec((4,)), (1,), F),
        lambda: cohomology_dims(GroupSpec((4,)), (1,), 1, "hh", twist=F),
        lambda: apply_b_twisted(CyclicCochain.basis(GroupSpec((4,)), (1,), 1, 0), F),
    ):
        with pytest.raises(SpecMismatch):
            call()
    assert _store_traffic() == (0, 0)


def test_a_third_key_evicts_the_oldest_store():
    grp = GroupSpec((4,))
    F = _twists(grp)[0]
    first = operators(grp, (1,))
    gone = weakref.ref(first)
    operators(grp, (1,), F)
    operators(grp, (3,))
    assert _store_traffic() == (2, 3)
    del first
    gc.collect()
    assert gone() is None
    assert operators(grp, (1,), F).rows("b", 1) == dims_reference.conjugated_rows(
        grp, (1,), F, "b", 1)


def test_cyclic_imports_nothing_from_twist():
    tree = ast.parse(Path(cyclic.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(n.split(".")[-1] == "twist" for n in names), ast.dump(node)
