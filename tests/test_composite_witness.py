"""linalg.composite_witness, the exact kernel that decides the composite-row
laws on integer root-of-unity counts, against the Scalar composition it
replaced (composite_reference): the same verdicts and counterexample texts
for every (group, chi) the certs benchmark can draw, for single composites
that do not vanish, for part (b) of verify_transport on the octonions and
on the z5_table twist, whose twisted rows hold Scalars that are no
monomials, and under planted bugs."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from composite_reference import (
    compose_rows,
    intertwining_counterexample,
    mixed_counterexamples,
    row_counterexample,
)
from quasicyc.cochains import Cochain2
from quasicyc.cyclic import OperatorCache, mixed_complex_report, operator_counterexample, operators
from quasicyc.groups import GroupSpec
from quasicyc.linalg import LaurentScalars, composite_witness
from quasicyc.presets import builtin, load
from quasicyc.scalars import RingMismatch, Scalar, Unit
from quasicyc.twist import verify_transport

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _gen()


def _certs_draws(kind):
    """(group, chi, degree, twist order) of every character the certs
    generator can draw for a slot with a job of this kind, at that job's
    degree."""
    out = []
    for orders, twist_order, weight_orders, jobs in GEN.CERTS_SLOTS:
        chis = [w for w in GEN._weights(orders) if GEN.weight_order(orders, w) == weight_orders[0]]
        for job in jobs:
            if job[0] == kind or job[:2] == ("cli", kind):
                degree = job[1] if kind == "mixed" else job[2]
                out += [(GroupSpec(orders), chi, degree, twist_order) for chi in chis]
    return out


def _draw_id(draw):
    group, chi, degree, _ = draw
    return f"{group.cyclic_orders}-{chi}-d{degree}"


MIXED_DRAWS = _certs_draws("mixed")
TWIST_DRAWS = _certs_draws("twist")


def _counterexamples(reports):
    return {r.law: r.counterexample for r in reports}


@pytest.mark.parametrize("draw", MIXED_DRAWS, ids=_draw_id)
def test_mixed_report_matches_reference(draw):
    group, chi, degree, _ = draw
    got = _counterexamples(mixed_complex_report(group, chi, degree))
    assert got == mixed_counterexamples(group, chi, degree)
    assert got == dict.fromkeys(got)


# composites that do not vanish, so the witness's row and column are compared
COMPOSITES = [("N", 0, "lambda", 0), ("B", -1, "b", 1), ("b", 1, "B", -1), ("lambda", 0, "lambda", 0)]


@pytest.mark.parametrize("draw", MIXED_DRAWS, ids=_draw_id)
def test_nonzero_composites_match_reference(draw):
    group, chi, degree, _ = draw
    rows = operators(group, chi).rows
    nonzero = 0
    for k in range(1, min(degree, 2) + 1):
        for outer, shift, inner, inner_shift in COMPOSITES:
            mid = k + inner_shift
            lhs = compose_rows(rows(outer, mid), rows(inner, k))
            out_degree = mid + shift
            want = row_counterexample(group, k, out_degree, lhs)
            nonzero += want is not None
            got = operator_counterexample(group, k, out_degree, [(1, rows(outer, mid), rows(inner, k))])
            assert got == want
        # 2 N and N - N lambda^2: a sum that is not zero, and one that is
        N, lam = rows("N", k), rows("lambda", k)
        assert operator_counterexample(group, k, k, [(1, N, lam), (1, N, None)]) == row_counterexample(
            group, k, k, compose_rows(N, lam), [[(c, -v) for c, v in r] for r in N]
        )
        lam2 = compose_rows(lam, lam)
        assert operator_counterexample(group, k, k, [(1, N, None), (-1, N, lam2)]) is None
    assert nonzero >= 3


def _transport_row(cert):
    return next(r for r in cert["identities"] if r["name"] == "transport_intertwines_b")


def _z5_table():
    return load(str(GOLDEN / "z5_table_preset.json"))


@pytest.mark.parametrize("preset", ["octonion", "z5_table"])
def test_intertwining_matches_reference_on_presets(preset):
    pre = builtin("octonion") if preset == "octonion" else _z5_table()
    F, chi, group = pre.cochain(), pre.ribbon_weight(), pre.group
    row = _transport_row(verify_transport(F, chi, group, 2))
    assert row["status"] == "pass" and row.get("counterexample") is None
    assert intertwining_counterexample(F, chi, group, 2) is None
    if preset == "z5_table":
        # the twisted rows hold Scalars that are no monomials
        twisted = operators(group, chi, F).rows("b", 1)
        assert any(c.__class__ is Scalar and Unit.of(c) is None for row in twisted for _, c in row)


@pytest.mark.parametrize("draw", TWIST_DRAWS, ids=_draw_id)
def test_intertwining_matches_reference_on_certs_twists(draw):
    group, chi, degree, twist_order = draw
    expr = GEN.twist_expr(random.Random(f"{group.cyclic_orders}{chi}"), group.cyclic_orders,
                          twist_order, cubic=True)
    F = Cochain2.from_expr(group, ("root_of_unity", twist_order), expr)
    row = _transport_row(verify_transport(F, chi, group, degree))
    assert row["status"] == "pass"
    assert intertwining_counterexample(F, chi, group, degree) is None


# -- the zero test ---------------------------------------------------------------

Z3 = GroupSpec((3,))


def test_sum_that_cancels_only_through_the_cyclotomic_relation_is_zero():
    # sum_g chi(g) = 1 + zeta + zeta^2 for chi of order 3 on Z3: three
    # different codes, each count 1, and the sum is zero
    chi_rows = [[(0, Z3.char_eval((1,), g))] for g in Z3.elements()]
    assert len({row[0][1] for row in chi_rows}) == 3
    assert composite_witness([(1, [[(0, 1), (1, 1), (2, 1)]], chi_rows)], 1) is None
    # one count short: 1 + zeta is not zero, nor is 1 + zeta + zeta^2 + 1
    assert composite_witness([(1, [[(0, 1), (1, 1)]], chi_rows)], 1) == (0, 0)
    assert composite_witness([(1, [[(0, 1), (1, 1), (2, 1)]], chi_rows),
                              (1, [[(0, 1)]], None)], 1) == (0, 0)


def test_counts_that_stay_nonzero_are_nonzero():
    zeta = Unit.root_of_unity(4, 1)
    # row 0 cancels; in row 1 zeta + zeta^-1 cancels at column 0, and 2 zeta
    # is left at column 3 and zeta + zeta^2 at column 1
    rows = [[(2, zeta), (2, -zeta)],
            [(3, zeta), (1, zeta), (0, zeta), (3, zeta), (1, zeta * zeta), (0, zeta.inverse())]]
    assert composite_witness([(1, rows, None)], 4) == (1, 1)
    assert composite_witness([(1, rows[:1], None)], 4) is None
    # rational counts from Scalars that are no monomials: (1 + z)/2 - 1/2 - z/2 = 0
    half = Scalar.cyclotomic(5, [Fraction(1, 2), Fraction(1, 2)])
    assert composite_witness([(1, [[(0, half)]], None), (-1, [[(0, Scalar.rational(1, 2))]], None),
                              (-1, [[(0, Unit(Fraction(1, 2), 5, 1))]], None)], 1) is None
    assert composite_witness([(1, [[(0, half)]], None), (-1, [[(0, Unit.root_of_unity(5, 1))]], None)], 1) == (0, 0)


def test_entries_are_validated():
    with pytest.raises(LaurentScalars):
        composite_witness([(1, [[(0, Unit.q_power(1))]], None)], 1)
    with pytest.raises(RingMismatch):
        composite_witness([(1, [[(0, Unit.root_of_unity(3, 1))]], [[(0, Unit.root_of_unity(4, 1))]])], 1)
    with pytest.raises(ValueError):
        composite_witness([(1, [[(0, 1)]], [[(1, 1)]])], 1)


# -- planted bugs ----------------------------------------------------------------


def _patch_rows(monkeypatch, twisted, op, degree, edit):
    """Make OperatorCache.rows return edit(rows) for (op, degree) of the
    twisted (or plain) stores."""
    orig = OperatorCache.rows

    def rows(self, o, k):
        out = orig(self, o, k)
        if (o, k) == (op, degree) and (self.prefactor is not None) == twisted:
            out = edit([list(r) for r in out])
        return out

    monkeypatch.setattr(OperatorCache, "rows", rows)


def test_moved_root_of_unity_fails_b_squared(monkeypatch):
    def move(rows):
        # the first entry zeta^a becomes zeta^(a+1)
        i, p = next((i, p) for i, r in enumerate(rows) for p, (_, c) in enumerate(r) if c.__class__ is Unit)
        col, c = rows[i][p]
        rows[i][p] = (col, c * Unit.root_of_unity(3, 1))
        return rows

    _patch_rows(monkeypatch, False, "b", 1, move)
    got = _counterexamples(mixed_complex_report(Z3, (1,), 2))
    assert got["b_squared"] is not None
    assert got == mixed_counterexamples(Z3, (1,), 2)


def test_flipped_twisted_b_entry_fails_intertwining(monkeypatch):
    pre = builtin("octonion")
    F, chi, group = pre.cochain(), pre.ribbon_weight(), pre.group

    def flip(rows):
        col, c = rows[5][1]
        rows[5][1] = (col, -c)
        return rows

    _patch_rows(monkeypatch, True, "b", 1, flip)
    row = _transport_row(verify_transport(F, chi, group, 2))
    assert row["status"] == "fail"
    assert row["counterexample"] == intertwining_counterexample(F, chi, group, 2) is not None
