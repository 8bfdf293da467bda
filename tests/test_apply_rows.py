"""linalg.apply_rows (cyclic.apply_rows), the applier on integer vectors in
Z[zeta_N], against the Scalar applier it replaced (dims_reference), and the
periodicity check that it serves.

Every stored operator at degrees 0-2 is applied, plain and under twists,
to seeded int vectors, rational vectors with Fraction coordinates and
Q(zeta_N) vectors; the twisted rows include the Scalar entries of the
z5_table twist and of a table twist whose values have Fraction
coordinates, so the rows themselves have denominators.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import dims_reference
import unit_rows_reference
from quasicyc import cyclic
from quasicyc.cochains import Cochain2
from quasicyc.cyclic import OperatorCache, apply_rows, operators, periodicity_report
from quasicyc.groups import GroupSpec
from quasicyc.linalg import LaurentScalars, row_set
from quasicyc.presets import builtin, load
from quasicyc.scalars import RingMismatch, Scalar, Unit

GOLDEN = Path(__file__).resolve().parent / "golden"
Z5 = GroupSpec((5,))

# (group, chi, N of the Q(zeta_N) vectors)
PLAIN = [
    (GroupSpec((2, 2)), (1, 1), 4),
    (GroupSpec((3,)), (1,), 3),
    (GroupSpec((4,)), (1,), 4),
    (GroupSpec((8,)), (3,), 8),
]


def _z5_table():
    return load(str(GOLDEN / "z5_table_preset.json")).cochain()


def _z5_fractional():
    """A table twist on Z5 whose values 1/2 + z and -z^2/3 are no units of
    Z[zeta_5], so P and P^-1 have Fraction coordinates."""
    half = Scalar.cyclotomic(5, [Fraction(1, 2), 1])
    third = Scalar.cyclotomic(5, [0, 0, Fraction(-1, 3)])
    els = list(Z5.elements())
    return Cochain2.from_table(Z5, [
        (g, h, Scalar.one() if not g[0] or not h[0] else half if (g[0] + h[0]) % 2 else third)
        for g in els for h in els
    ])


def _twisted():
    """(group, chi, twist, N) for the twisted row sets."""
    out = []
    for grp, chi, N in PLAIN:
        order = math.lcm(*grp.cyclic_orders)
        for expr in ("i1*j1", "i1*i1*j1"):
            out.append((grp, chi, Cochain2.from_expr(grp, ("root_of_unity", order), expr), N))
    out += [(Z5, (1,), _z5_table(), 5), (Z5, (1,), _z5_fractional(), 5)]
    return out


def _vectors(dim, N, rng):
    """An int vector, a rational one with Fraction coordinates and a
    Q(zeta_N) one, each with zeros."""
    ints = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(dim)]
    rational = [Scalar.rational(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
    phi = len(Scalar.root_of_unity(N, 1).payload)
    field = [
        Scalar.cyclotomic(N, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(phi)])
        for _ in range(dim)
    ]
    return ints, rational, field


def _degrees(op):
    return (1, 2) if op == "B" else (0, 1, 2)


def _check_against_reference(rows, unit_rows, vectors):
    """The stored row set applied as the Scalar applier applies the Unit
    rows the store held before."""
    ints, rational, field = vectors
    got, wants = apply_rows(rows, ints, 0), dims_reference.apply_rows(unit_rows, ints, 0)
    assert got == wants
    plain = all(c.__class__ is int for row in unit_rows for _, c in row)
    for i, (v, want) in enumerate(zip(got, wants)):
        # ints out where the reference gives ints: under +-1 rows, everywhere
        assert type(v) is int or not plain
        # an int wherever the entries the row reads are rational integers
        read = [e for col, e in rows[i].items() if ints[col]]
        integral = (rows.dens is None or rows.dens[i] == 1) and all(
            e in (0, rows.N) if e.__class__ is int else not any(e[1:]) for e in read)
        assert type(v) is (int if integral else Scalar) or not v
    for vec in (rational, field):
        got = apply_rows(rows, vec, Scalar.zero())
        assert got == dims_reference.apply_rows(unit_rows, vec, Scalar.zero())
        assert all(v.__class__ is Scalar for v in got)


@pytest.mark.parametrize("op", sorted(OperatorCache.OPS))
@pytest.mark.parametrize("grp, chi, N", PLAIN, ids=["Z2xZ2", "Z3", "Z4", "Z8"])
def test_plain_rows_match_the_scalar_applier(grp, chi, N, op):
    rng = random.Random(f"{grp}{chi}{op}")
    for k in _degrees(op):
        rows = operators(grp, chi).rows(op, k)
        unit_rows = unit_rows_reference.stored_rows(grp, chi, op, k)
        _check_against_reference(rows, unit_rows, _vectors(cyclic.space_dim(grp, k), N, rng))


@pytest.mark.parametrize("op", sorted(OperatorCache.OPS))
def test_twisted_rows_match_the_scalar_applier(op):
    rng = random.Random(op)
    for grp, chi, F, N in _twisted():
        for k in _degrees(op):
            rows = operators(grp, chi, F).rows(op, k)
            unit_rows = unit_rows_reference.stored_rows(grp, chi, op, k, F)
            _check_against_reference(rows, unit_rows, _vectors(cyclic.space_dim(grp, k), N, rng))


def test_the_fractional_twist_gives_rows_with_denominators():
    rows = operators(Z5, (1,), _z5_fractional()).rows
    for op in ("b", "S"):
        assert any(d > 1 for d in rows(op, 1).dens), op


def test_a_row_with_denominators_is_divided_back():
    third, half = Scalar.rational(1, 3), Scalar.cyclotomic(4, [Fraction(1, 2), 1])
    rows = [[(0, third), (1, 1)], [(0, half), (1, -1), (0, -1)], [(1, third), (1, third)], []]
    vec = [Scalar.rational(3, 4), Scalar.cyclotomic(4, [0, Fraction(-2, 5)])]
    got = apply_rows(row_set(rows, 2), vec, Scalar.zero())
    assert got == dims_reference.apply_rows(rows, vec, Scalar.zero())
    assert apply_rows(row_set([[(0, 1), (1, -1)]], 2), [Scalar.rational(1, 2)] * 2, "zero") == ["zero"]


def test_laurent_entries_raise():
    q = Unit.q_power(1)
    with pytest.raises(LaurentScalars):
        apply_rows(row_set([[(0, q)]], 1), [1], 0)
    with pytest.raises(LaurentScalars):
        apply_rows(row_set([[(0, 1)]], 1), [Scalar.q_power(2)], 0)


def test_two_cyclotomic_fields_raise():
    with pytest.raises(RingMismatch):
        apply_rows(row_set([[(0, Unit.root_of_unity(3, 1))]], 1), [Scalar.root_of_unity(4, 1)], 0)
    with pytest.raises(RingMismatch):
        apply_rows(row_set([[(0, Unit.root_of_unity(3, 1))], [(0, Unit.root_of_unity(5, 1))]], 1), [1], 0)


@pytest.mark.parametrize("field", [False, True], ids=["rational", "Q(zeta_4)"])
def test_no_scalar_arithmetic_runs(monkeypatch, field):
    grp = GroupSpec((4,))
    F = Cochain2.from_expr(grp, ("root_of_unity", 4), "i1*i1*j1")
    rows = operators(grp, (1,)).rows("b", 1) + operators(grp, (1,), F).rows("b", 1)
    unit_rows = (unit_rows_reference.stored_rows(grp, (1,), "b", 1)
                 + unit_rows_reference.stored_rows(grp, (1,), "b", 1, F))
    vec = _vectors(cyclic.space_dim(grp, 1), 4, random.Random(5))[2 if field else 1]
    want = dims_reference.apply_rows(unit_rows, vec, Scalar.zero())

    def forbidden(*_):
        raise AssertionError("Scalar arithmetic in apply_rows")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(Scalar, name, forbidden)
    got = apply_rows(rows, vec, Scalar.zero())
    monkeypatch.undo()
    assert got == want


@pytest.mark.parametrize("preset, group, chi, atom", [
    ("octonion", None, None, 0),
    ("octonion", None, None, 5),
] + [(None, GroupSpec((4,)), (1,), i) for i in range(6)])
def test_a_wrong_S_sign_fails_periodicity_at_degree_2(monkeypatch, preset, group, chi, atom):
    """S with the sign of one degree-2 atom flipped maps a degree-2 cocycle
    out of the cocycles, and the report names it."""
    if preset is not None:
        group, chi = builtin(preset).group, builtin(preset).ribbon_weight()
    s_atoms = cyclic.s_atoms

    def flipped(grp, ch, m):
        atoms = s_atoms(grp, ch, m)
        if m == 2:
            c, pulls = atoms[atom]
            atoms[atom] = (-c, pulls)
        return atoms

    monkeypatch.setattr(cyclic, "s_atoms", flipped)
    [rep] = periodicity_report(group, chi, 2)
    assert not rep.holds
    assert rep.counterexample.startswith("degree 2 basis vector")


@pytest.mark.parametrize("orders, chi, counts", [
    ((2, 2, 2), (0, 0, 0), "1 + 0 + 1"),
    ((2, 2, 2), (1, 0, 0), "0 + 1 + 3"),
    ((4,), (1,), "0 + 1 + 1"),
])
def test_periodicity_domain_counts_the_basis_vectors(orders, chi, counts):
    grp = GroupSpec(orders)
    [rep] = periodicity_report(grp, chi, 2)
    assert rep.holds
    assert rep.domain == f"cocycle bases, degrees <= 2: {counts} vectors"
    lens = [len(cyclic.cyclic_cocycle_basis(grp, chi, m)) for m in range(3)]
    assert " + ".join(map(str, lens)) == counts
