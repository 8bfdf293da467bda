import random

import pytest

from quasicyc.calculus import (
    CalculusSpec,
    DegreeMismatch,
    Form,
    KindMismatch,
    LowerDegreeIgnored,
    character_closed,
    character_direct,
    check_calculus,
    differential,
    form_product,
    integral,
    render_form,
    top_projection,
)
from quasicyc.groups import GroupSpec
from quasicyc.presets import builtin
from quasicyc.quasialgebra import GradedElement, ribbon_apply
from quasicyc.scalars import Scalar

Z2_3 = GroupSpec((2, 2, 2))
E3 = (0, 0, 0)
U = (1, 0, 0)
V = (0, 1, 0)
W = (0, 0, 1)
UVW = (1, 1, 1)


@pytest.fixture(scope="module")
def oct_preset():
    return builtin("octonion")


@pytest.fixture(scope="module")
def oct_calc(oct_preset):
    return oct_preset.calculus()


@pytest.fixture(scope="module")
def oct_F(oct_preset):
    return oct_preset.cochain()


@pytest.fixture(scope="module")
def torus_preset():
    return builtin("torus")


@pytest.fixture(scope="module")
def torus_calc(torus_preset):
    return torus_preset.calculus()


@pytest.fixture(scope="module")
def torus_F(torus_preset):
    return torus_preset.cochain()


def test_spec_validation():
    with pytest.raises(KindMismatch):
        CalculusSpec(Z2_3, "characters")
    with pytest.raises(KindMismatch):
        CalculusSpec(Z2_3, "derivations")
    with pytest.raises(KindMismatch):
        CalculusSpec(GroupSpec((), free_rank=1), "derivations", ((1,),))
    with pytest.raises(KindMismatch):
        CalculusSpec(Z2_3, "volume")


def test_octonion_differential(oct_calc):
    du = differential(oct_calc, Form.basis(oct_calc, U))
    assert du == Form(oct_calc, [((U, (1,)), -2)])
    duv = differential(oct_calc, Form.basis(oct_calc, (1, 1, 0)))
    assert duv == Form(oct_calc, [(((1, 1, 0), (1,)), -2), (((1, 1, 0), (2,)), -2)])
    assert differential(oct_calc, Form.basis(oct_calc, E3)).is_zero()
    # generator 1-forms are closed
    for i in (1, 2, 3):
        assert differential(oct_calc, Form.basis(oct_calc, E3, (i,))).is_zero()


def test_octonion_commutation(oct_calc):
    w1 = Form.basis(oct_calc, E3, (1,))
    a = Form.basis(oct_calc, U)
    assert form_product(oct_calc, w1, a) == -form_product(oct_calc, a, w1)
    v = Form.basis(oct_calc, V)
    assert form_product(oct_calc, w1, v) == form_product(oct_calc, v, w1)


def test_wedge_antisymmetry(oct_calc):
    w1 = Form.basis(oct_calc, E3, (1,))
    w2 = Form.basis(oct_calc, E3, (2,))
    assert form_product(oct_calc, w1, w2) == -form_product(oct_calc, w2, w1)
    assert form_product(oct_calc, w1, w1).is_zero()


def test_laws_octonion(oct_calc, oct_F):
    assert check_calculus(oct_calc, "d_squared").holds
    assert check_calculus(oct_calc, "leibniz").holds
    assert check_calculus(oct_calc, "leibniz", F=oct_F).holds
    assert check_calculus(oct_calc, "closedness").holds
    assert check_calculus(oct_calc, "graded_trace").holds
    assert check_calculus(oct_calc, "graded_trace", F=oct_F).holds
    assert check_calculus(oct_calc, "d_products_vanish", degree_max=2).holds


def test_laws_torus(torus_calc, torus_F):
    dom = ("window", 2)
    assert check_calculus(torus_calc, "d_squared", domain=dom).holds
    assert check_calculus(torus_calc, "leibniz", domain=dom).holds
    assert check_calculus(torus_calc, "leibniz", F=torus_F, domain=dom).holds
    assert check_calculus(torus_calc, "closedness", domain=dom).holds
    assert check_calculus(torus_calc, "graded_trace", F=torus_F, domain=dom).holds
    assert check_calculus(torus_calc, "d_products_vanish", domain=("window", 1), degree_max=2).holds


def test_torus_differential(torus_calc):
    g = (2, 3)
    dg = differential(torus_calc, Form.basis(torus_calc, g))
    assert dg == Form(torus_calc, [((g, (1,)), 2), ((g, (2,)), 3)])
    # generators are central for the derivations kind
    w1 = Form.basis(torus_calc, (0, 0), (1,))
    a = Form.basis(torus_calc, (5, -1))
    assert form_product(torus_calc, w1, a) == form_product(torus_calc, a, w1)


def test_integral_and_projection(oct_calc):
    x = Form(oct_calc, [((E3, (1, 2, 3)), 5), ((U, (1, 2, 3)), 2)])
    assert integral(oct_calc, x) == 5
    assert top_projection(oct_calc, x) == GradedElement(
        Z2_3, [(E3, 5), (U, 2)]
    )
    low = x + Form.basis(oct_calc, V, (1,))
    with pytest.warns(LowerDegreeIgnored):
        assert integral(oct_calc, low) == 5
    with pytest.warns(LowerDegreeIgnored):
        top_projection(oct_calc, low)


def test_rho_and_ribbon(oct_calc):
    # rho of the graded trace is sigma for the calculus' grade character
    chi = oct_calc.ribbon_weight()
    assert ribbon_apply(Z2_3, chi, GradedElement.basis(Z2_3, U)) == GradedElement.basis(Z2_3, U, -1)
    assert ribbon_apply(Z2_3, chi, GradedElement.basis(Z2_3, (1, 1, 0))) == GradedElement.basis(
        Z2_3, (1, 1, 0)
    )


def test_octonion_character_frozen(oct_calc, oct_F):
    gs = (UVW, U, V, W)
    assert character_direct(oct_calc, gs) == -8
    assert character_closed(oct_calc, "general", gs) == -8
    assert character_closed(oct_calc, "octonion", gs) == -8
    # twist prefactor is +1 at this tuple
    assert character_direct(oct_calc, gs, F=oct_F) == -8
    assert character_closed(oct_calc, "octonion", (W, U, V, UVW)) == -8
    # support violation
    assert character_direct(oct_calc, (U, U, V, W)).is_zero()
    assert character_closed(oct_calc, "octonion", (U, U, V, W)).is_zero()


def test_character_routes_agree_sample(oct_calc):
    rng = random.Random(4)
    els = Z2_3.elements()
    for _ in range(40):
        gs = tuple(rng.choice(els) for _ in range(4))
        d = character_direct(oct_calc, gs)
        assert d == character_closed(oct_calc, "general", gs)
        assert d == character_closed(oct_calc, "octonion", gs)


def test_torus_character_frozen(torus_calc, torus_F):
    gs = ((-1, -1), (1, 0), (0, 1))
    assert character_direct(torus_calc, gs) == 1
    assert character_closed(torus_calc, "torus", gs) == 1
    assert character_direct(torus_calc, gs, F=torus_F) == Scalar.q_power(-1)
    assert character_closed(torus_calc, "torus_twisted", gs) == Scalar.q_power(-1)


def test_torus_character_random(torus_calc, torus_F):
    rng = random.Random(5)
    for _ in range(30):
        g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        g0 = torus_calc.group.inv(torus_calc.group.mul(g1, g2))
        gs = (g0, g1, g2)
        assert character_direct(torus_calc, gs) == character_closed(
            torus_calc, "torus", gs
        )
        assert character_direct(torus_calc, gs, F=torus_F) == character_closed(
            torus_calc, "torus_twisted", gs
        )


def test_character_errors(oct_calc, torus_calc):
    with pytest.raises(DegreeMismatch):
        character_direct(oct_calc, (U, V))
    with pytest.raises(DegreeMismatch):
        character_closed(oct_calc, "octonion", (U, V))
    with pytest.raises(KindMismatch):
        character_closed(torus_calc, "general", ((0, 0), (0, 0), (0, 0)))
    with pytest.raises(KindMismatch):
        character_closed(torus_calc, "octonion", ((0, 0), (0, 0), (0, 0)))
    with pytest.raises(KindMismatch):
        character_closed(oct_calc, "torus", (E3, E3, E3, E3))


def test_render_form(oct_calc):
    x = Form(oct_calc, [((U, (1,)), -2), (((1, 1, 0), (1, 2)), 1)])
    assert render_form(x) == "-2*u*w1 + u*v*w1^w2"
    assert render_form(Form(oct_calc)) == "0"
    assert render_form(Form.basis(oct_calc, E3, (1, 3))) == "w1^w3"
    assert render_form(Form.basis(oct_calc, E3)) == "e"
