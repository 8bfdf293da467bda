import random
from fractions import Fraction

import pytest

from quasicyc.cochains import braiding_R, coboundary_phi
from quasicyc.groups import GroupSpec, SpecMismatch
from quasicyc.presets import builtin
from quasicyc.quasialgebra import (
    GradedElement,
    associator_defect,
    cayley_dickson_conj,
    cayley_dickson_oracle,
    cayley_dickson_product,
    check_ribbon_axiom,
    norm_square,
    render_graded,
    ribbon_apply,
    twisted_product,
)
from quasicyc.scalars import Scalar

Z2_3 = GroupSpec((2, 2, 2))
E3 = (0, 0, 0)
U = (1, 0, 0)
V = (0, 1, 0)
W = (0, 0, 1)


@pytest.fixture(scope="module")
def oct_F():
    return builtin("octonion").cochain()


@pytest.fixture(scope="module")
def torus_F():
    return builtin("torus").cochain()


def b(g, coeff=1, group=Z2_3):
    return GradedElement.basis(group, g, coeff)


def test_element_arithmetic():
    x = b(U, 2) + b(V) - b(U, 2)
    assert x == b(V)
    assert (0 * x).is_zero()
    assert Scalar.rational(3, 2) * b(U) == b(U, Fraction(3, 2))
    with pytest.raises(SpecMismatch):
        b(U) + GradedElement.basis(GroupSpec((2,)), (1,))


def test_render():
    grp = Z2_3
    x = GradedElement(grp, [((1, 1, 0), Scalar.rational(3, 2)), (W, -Scalar.q_power(2))])
    assert render_graded(x) == "3/2*u*v - q^2*w"
    assert render_graded(GradedElement(grp)) == "0"
    assert render_graded(b(E3, -1)) == "-e"


def test_octonion_products(oct_F):
    assert twisted_product(oct_F, b(U), b(U)) == b(E3, -1)
    assert twisted_product(oct_F, b(U), b(V)) == b((1, 1, 0), -1)
    assert twisted_product(oct_F, b(V), b(U)) == b((1, 1, 0))
    for g in Z2_3.elements():
        if g != E3:
            assert twisted_product(oct_F, b(g), b(g)) == b(E3, -1)
        assert twisted_product(oct_F, b(E3), b(g)) == b(g)
        assert twisted_product(oct_F, b(g), b(E3)) == b(g)


def test_quasi_associativity_exhaustive(oct_F):
    phi = coboundary_phi(oct_F)
    for g in Z2_3.elements():
        for h in Z2_3.elements():
            for k in Z2_3.elements():
                lhs = twisted_product(oct_F, b(g), twisted_product(oct_F, b(h), b(k)))
                rhs = phi.value(g, h, k) * twisted_product(
                    oct_F, twisted_product(oct_F, b(g), b(h)), b(k)
                )
                assert lhs == rhs, (g, h, k)
    assert associator_defect(oct_F, U, V, W) == -1


def test_braided_commutativity(oct_F):
    R = braiding_R(oct_F)
    for g in Z2_3.elements():
        for h in Z2_3.elements():
            lhs = twisted_product(oct_F, b(h), b(g))
            rhs = R.value(g, h) * twisted_product(oct_F, b(g), b(h))
            assert lhs == rhs


def _random_element(rng, group=Z2_3):
    terms = [(g, rng.randint(-3, 3)) for g in group.elements()]
    return GradedElement(group, terms)


def test_octonion_alternativity_and_norm(oct_F):
    rng = random.Random(1)
    for _ in range(60):
        x = _random_element(rng)
        y = _random_element(rng)
        xx = twisted_product(oct_F, x, x)
        assert twisted_product(oct_F, xx, y) == twisted_product(
            oct_F, x, twisted_product(oct_F, x, y)
        )
        assert twisted_product(oct_F, y, xx) == twisted_product(
            oct_F, twisted_product(oct_F, y, x), x
        )
        assert norm_square(twisted_product(oct_F, x, y)) == norm_square(x) * norm_square(y)


def test_torus_product(torus_F):
    grp = torus_F.group
    u, v = (1, 0), (0, 1)
    uv = GradedElement.basis(grp, (1, 1))
    assert twisted_product(torus_F, GradedElement.basis(grp, u), GradedElement.basis(grp, v)) == uv
    assert twisted_product(torus_F, GradedElement.basis(grp, v), GradedElement.basis(grp, u)) == Scalar.q_power(1) * uv
    # normally ordered powers multiply without q factors
    for a in range(-2, 3):
        for bb in range(-2, 3):
            lhs = twisted_product(
                torus_F, GradedElement.basis(grp, (a, 0)), GradedElement.basis(grp, (0, bb))
            )
            assert lhs == GradedElement.basis(grp, (a, bb))


def test_ribbon(oct_F, torus_F):
    chi = (1, 1, 1)
    assert ribbon_apply(Z2_3, chi, b(U)) == b(U, -1)
    assert ribbon_apply(Z2_3, chi, b((1, 1, 0))) == b((1, 1, 0))
    assert check_ribbon_axiom(oct_F, chi).holds
    assert check_ribbon_axiom(torus_F, (), ("window", 2)).holds


# Cayley-Dickson doubling oracle

def test_cd_small_tables():
    assert cayley_dickson_oracle(1) == [[(1, 0)]]
    four = cayley_dickson_oracle(4)
    assert four[1][2] == (1, 3)
    assert four[2][1] == (-1, 3)
    assert four[1][1] == (-1, 0)


def test_cd_structure_dim8():
    table = cayley_dickson_oracle(8)
    for a in range(8):
        assert table[0][a] == (1, a)
        assert table[a][0] == (1, a)
    for a in range(1, 8):
        assert table[a][a] == (-1, 0)
        for c in range(1, 8):
            if c != a:
                sgn, idx = table[a][c]
                assert idx not in (0, a, c)
                assert table[c][a] == (-sgn, idx)


def test_cd_alternativity_and_norm():
    rng = random.Random(2)
    for _ in range(40):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        xx = cayley_dickson_product(x, x)
        assert cayley_dickson_product(xx, y) == cayley_dickson_product(
            x, cayley_dickson_product(x, y)
        )
        nx = sum(c * c for c in x)
        ny = sum(c * c for c in y)
        nxy = sum(c * c for c in cayley_dickson_product(x, y))
        assert nxy == nx * ny


def test_cd_conj_is_involution():
    rng = random.Random(3)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
    assert cayley_dickson_conj(cayley_dickson_conj(x)) == x


def _reducing_twisted_product(F, a, b):
    """The product as built before: every key through GroupSpec.reduce."""
    out = []
    for g, cg in a.terms.items():
        for h, ch in b.terms.items():
            c = cg * ch
            if F is not None:
                c = F.value(g, h) * c
            out.append((a.group.mul(g, h), c))
    return GradedElement(a.group, out)


@pytest.mark.parametrize("group, base, expr", [
    (GroupSpec((2, 3)), ("root_of_unity", 6), "i1*j2 + 2*i2*j2"),
    (GroupSpec((), 2), ("laurent",), "i1*j2 - i2*j1"),
    (GroupSpec((4,), 1), ("root_of_unity", 4), "i1*j2 + i2*j1"),
])
def test_products_keyed_equal_reducing_constructor(group, base, expr):
    from quasicyc.cochains import Cochain2

    F = Cochain2.from_expr(group, base, expr)
    weight = (1,) * group.torsion_rank
    els = group.window_elements(2)
    rng = random.Random(f"keyed-{group}")

    def element():
        return GradedElement(group, [(rng.choice(els), rng.randint(-2, 2)) for _ in range(4)])

    for _ in range(25):
        a, b = element(), element()
        for twist in (F, None):
            got = twisted_product(twist, a, b)
            assert got == _reducing_twisted_product(twist, a, b)
            assert all(group.reduce(g) == g for g in got.terms)
        sigma = ribbon_apply(group, weight, a)
        assert sigma == GradedElement(
            group, [(g, group.char_eval(weight, g) * c) for g, c in a.terms.items()]
        )
