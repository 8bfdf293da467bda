import random

import pytest

from quasicyc.calculus import check_calculus
from quasicyc.cochains import (
    Cochain2,
    braiding_R,
    check_cochain_laws,
    coboundary_phi,
)
from quasicyc.exprdsl import eval_expr, parse_expr
from quasicyc.groups import GroupSpec, SpecMismatch
from quasicyc.presets import BUILTIN_NAMES, builtin
from quasicyc.quasialgebra import check_ribbon_axiom
from quasicyc.scalars import Scalar

Z2_3 = GroupSpec((2, 2, 2))
TORUS = GroupSpec((), free_rank=2)

E3 = (0, 0, 0)
U = (1, 0, 0)
V = (0, 1, 0)
W = (0, 0, 1)
UVW = (1, 1, 1)


@pytest.fixture(scope="module")
def oct_F():
    return builtin("octonion").cochain()


@pytest.fixture(scope="module")
def torus_F():
    return builtin("torus").cochain()


# hand-evaluated sign exponents of the octonion twist
def test_octonion_frozen_values(oct_F):
    assert oct_F.value(U, U) == -1
    assert oct_F.value(U, V) == -1
    assert oct_F.value(V, U) == 1
    assert oct_F.value(UVW, U) == 1
    assert oct_F.value((0, 1, 1), V) == -1
    assert oct_F.value(W, W) == -1
    for g in Z2_3.elements():
        if g != E3:
            assert oct_F.value(g, g) == -1, g


def test_octonion_braiding(oct_F):
    R = braiding_R(oct_F)
    assert R.value(U, V) == -1
    assert R.value(V, U) == -1
    for g in Z2_3.elements():
        assert R.value(g, g) == 1


def test_octonion_unital_but_not_cocycle(oct_F):
    assert check_cochain_laws(oct_F, "unital").holds
    rep = check_cochain_laws(oct_F, "two_cocycle")
    assert not rep.holds
    assert rep.counterexample is not None
    assert not check_cochain_laws(oct_F, "bicharacter").holds


def test_octonion_coboundary_is_det_sign(oct_F):
    # independent route: phi_F(g,h,k) = (-1)^det[g;h;k] over F2
    phi = coboundary_phi(oct_F)
    for g in Z2_3.elements():
        for h in Z2_3.elements():
            for k in Z2_3.elements():
                det = (
                    g[0] * (h[1] * k[2] - h[2] * k[1])
                    - g[1] * (h[0] * k[2] - h[2] * k[0])
                    + g[2] * (h[0] * k[1] - h[1] * k[0])
                )
                assert phi.value(g, h, k) == (-1) ** (det % 2), (g, h, k)


def test_octonion_coboundary_laws(oct_F):
    phi = coboundary_phi(oct_F)
    assert phi.value(U, V, W) == -1
    assert check_cochain_laws(phi, "unital").holds
    assert check_cochain_laws(phi, "three_cocycle").holds


def test_torus_frozen_values(torus_F):
    q = Scalar.q_power(1)
    assert torus_F.value((1, 0), (0, 1)) == Scalar.one()
    assert torus_F.value((0, 1), (1, 0)) == q
    assert torus_F.value((0, -1), (1, 0)) == Scalar.q_power(-1)
    R = braiding_R(torus_F)
    assert R.value((1, 0), (0, 1)) == q
    assert R.value((0, 1), (1, 0)) == Scalar.q_power(-1)


def test_torus_is_cocycle_and_bicharacter(torus_F):
    assert check_cochain_laws(torus_F, "unital", ("window", 3)).holds
    assert check_cochain_laws(torus_F, "two_cocycle", ("window", 2)).holds
    assert check_cochain_laws(torus_F, "bicharacter", ("window", 2)).holds
    phi = coboundary_phi(torus_F)
    assert phi.value((-1, -1), (1, 0), (0, 1)) == Scalar.one()
    assert check_cochain_laws(phi, "three_cocycle", ("window", 1)).holds


def test_report_text(oct_F):
    rep = check_cochain_laws(oct_F, "unital")
    assert "unital holds on exhaustive" in str(rep)
    bad = check_cochain_laws(oct_F, "two_cocycle")
    assert "fails" in str(bad)


def _random_unit_table(group, rng):
    N = group.exponent
    e = group.identity()
    entries = []
    for g in group.elements():
        for h in group.elements():
            if g == e or h == e:
                entries.append((g, h, Scalar.one()))
            else:
                entries.append((g, h, Scalar.root_of_unity(N, rng.randrange(N))))
    return entries


@pytest.mark.parametrize("orders", [(2, 2), (3,)])
def test_random_tables_coboundary_laws(orders):
    group = GroupSpec(orders)
    rng = random.Random(7)
    for _ in range(5):
        F = Cochain2.from_table(group, _random_unit_table(group, rng))
        phi = coboundary_phi(F)
        assert check_cochain_laws(phi, "unital").holds
        assert check_cochain_laws(phi, "three_cocycle").holds


def test_table_coverage_and_units():
    group = GroupSpec((2,))
    with pytest.raises(ValueError, match="misses"):
        Cochain2.from_table(group, [((0,), (0,), Scalar.one())])
    full = [(g, h, Scalar.one()) for g in group.elements() for h in group.elements()]
    bad = [(g, h, Scalar.zero()) for g, h, _ in full]
    with pytest.raises(ValueError, match="unit"):
        Cochain2.from_table(group, bad)


def test_non_unital_rejected():
    group = GroupSpec((2,))
    with pytest.raises(ValueError, match="unital"):
        Cochain2.from_expr(group, ("root_of_unity", 2), "i1+j1")


def test_non_unital_table_rejected():
    group = GroupSpec((2,))
    entries = [(g, h, -Scalar.one()) for g in group.elements() for h in group.elements()]
    with pytest.raises(ValueError, match="unital"):
        Cochain2.from_table(group, entries)


# a sample of the free part is not a proof: this exponent vanishes at
# e x [-16, 16] and nowhere else on e x Z
WIDE_ROOTS = "*".join(f"(j1-({c}))" for c in range(-16, 17))


def test_expr_unitality_is_exact_beyond_any_window():
    with pytest.raises(ValueError, match="unital"):
        Cochain2.from_expr(TORUS, ("laurent",), WIDE_ROOTS)
    F = _unchecked(TORUS, ("laurent",), WIDE_ROOTS)
    assert check_cochain_laws(F, "unital", ("window", 16)).holds
    assert F.value((0, 0), (17, 0)) != Scalar.one()


def test_expr_unitality_grid_and_modulus():
    Z = GroupSpec((), 1)
    # h(h-1) vanishes at 0 and 1: a grid one point short would accept it
    with pytest.raises(ValueError, match="unital"):
        Cochain2.from_expr(Z, ("laurent",), "j1*(j1-1)")
    # but it is always even, so zeta_2^(h(h-1)) = 1
    F = Cochain2.from_expr(Z, ("root_of_unity", 2), "j1*(j1-1)")
    assert all(F.value((0,), (h,)) == Scalar.one() for h in range(-5, 6))


@pytest.mark.parametrize("N", [0, -2])
def test_root_of_unity_order_below_one_rejected(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        Cochain2.from_expr(GroupSpec((2,)), ("root_of_unity", N), "i1*j1")


def test_expr_unitality_enumerates_torsion():
    group = GroupSpec((3,), 1)
    with pytest.raises(ValueError, match="unital"):
        Cochain2.from_expr(group, ("laurent",), "j1")
    Cochain2.from_expr(group, ("laurent",), "i1*j2")


def _unchecked(group, base, src):
    ast = parse_expr(src, 2, group.rank)
    if base[0] == "laurent":
        fn = lambda g, h: Scalar.q_power(eval_expr(ast, (g, h)))
    else:
        fn = lambda g, h: Scalar.root_of_unity(base[1], eval_expr(ast, (g, h)))
    return Cochain2(group, fn, src)


Z3_FREE = GroupSpec((), 3)

# no variable occurs more than twice per argument, so the exact grid
# {0..2} per free coordinate lies inside window(2): there the window
# check is exact too and the two verdicts must agree
WINDOW_CASES = [(p.group, p.cochain_spec[1], p.cochain_spec[2])
                for p in map(builtin, BUILTIN_NAMES)] + [
    (TORUS, ("laurent",), "i1*j2"),
    (TORUS, ("laurent",), "i2*j1 - i1*j2"),
    (TORUS, ("laurent",), "3*i1*j1 + i2*j2"),
    (Z3_FREE, ("laurent",), "i1*j2 + i2*j3 - i3*j1"),
    (Z3_FREE, ("laurent",), "i1*j2 + i3"),
    (TORUS, ("laurent",), "i1*i2"),
    (TORUS, ("laurent",), "i1*j1 + 1"),
    (TORUS, ("laurent",), "j2*(j2 - 1)"),
    (GroupSpec((2,), 1), ("root_of_unity", 2), "j2*(j2 - 1) + i1*j1"),
    (GroupSpec((2,), 1), ("root_of_unity", 2), "i1*j1*j1 + j2"),
]


@pytest.mark.parametrize("group,base,src", WINDOW_CASES)
def test_expr_unitality_matches_window_reference(group, base, src):
    ref = check_cochain_laws(_unchecked(group, base, src), "unital", ("window", 2))
    try:
        Cochain2.from_expr(group, base, src)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == ref.holds, ref


def test_memo_keys_are_reduced():
    group = GroupSpec((4,))
    F = Cochain2.from_expr(group, ("root_of_unity", 4), "i1*j1")
    g = tuple([1])
    assert F.value(g, g) == Scalar.root_of_unity(4, 1)
    assert len(F._memo) == 1
    # an already-reduced argument is stored as the caller's own tuple
    (key,) = F._memo
    assert key[0] is g and key[1] is g
    assert F.value((5,), (1,)) == F.value((1,), (1,))
    assert F.value([5], [-3]) == F.value((1,), (1,))
    assert len(F._memo) == 1
    phi = coboundary_phi(F)
    assert phi.value([1], (2,), (7,)) == phi.value((1,), (2,), (3,))
    assert len(phi._memo) == 1
    with pytest.raises(SpecMismatch):
        F.value((1, 0), (1,))
    with pytest.raises(SpecMismatch):
        phi.value((1,), (1,), (1, 1))


@pytest.mark.parametrize("domain", ["bogus", ("window",), ("bogus", 2)])
def test_unknown_domain_rejected(oct_F, domain):
    with pytest.raises(ValueError, match="unknown domain"):
        check_cochain_laws(oct_F, "unital", domain)
    with pytest.raises(ValueError, match="unknown domain"):
        check_calculus(builtin("octonion").calculus(), "leibniz", domain=domain)
    with pytest.raises(ValueError, match="unknown domain"):
        check_ribbon_axiom(oct_F, (1, 1, 1), domain)
