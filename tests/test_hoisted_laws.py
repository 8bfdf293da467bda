"""The law checks that build each operand once per check return the same
LawReport as the loops they replaced (law_reference): the same verdict,
domain, first counterexample and detail, on passing inputs and on planted
failures.  A call count keeps per-pass rebuilds from coming back."""

import pytest

import law_reference as ref
from quasicyc import calculus, twist
from quasicyc.calculus import CalculusSpec, Form, check_calculus
from quasicyc.cochains import (
    Cochain2,
    Cochain3,
    braiding_R,
    check_cochain_laws,
    coboundary_phi,
)
from quasicyc.cyclic import _chi_table, sample_tuples
from quasicyc.groups import GroupSpec
from quasicyc.presets import builtin
from quasicyc.quasialgebra import check_algebra_laws, check_ribbon_axiom
from quasicyc.scalars import Unit

OCT = builtin("octonion")
Z2 = builtin("z2_trivial")
TOR = builtin("torus")
Z3FREE = GroupSpec((), 3)
Z3_F = Cochain2.from_expr(Z3FREE, ("laurent",), "i1*j2 - 2*i3*j1 + i2*j3")
Z3_CALC = CalculusSpec(Z3FREE, "derivations")
Z4 = GroupSpec((4,))
Z4_F = Cochain2.from_expr(Z4, ("root_of_unity", 4), "i1*i1*j1")  # no 2-cocycle
Z4_CALC = CalculusSpec(Z4, "characters", ((1,),))

# (id, F, ribbon weight, calculus, domain)
CASES = [
    ("Z2^3", OCT.cochain(), OCT.ribbon_weight(), OCT.calculus(), "exhaustive"),
    ("Z2", Z2.cochain(), Z2.ribbon_weight(), Z2.calculus(), "exhaustive"),
    ("Z4", Z4_F, (1,), Z4_CALC, "exhaustive"),
    ("Z^2-w1", TOR.cochain(), (), TOR.calculus(), ("window", 1)),
    ("Z^3-w1", Z3_F, (), Z3_CALC, ("window", 1)),
]
SMALL = [c for c in CASES if c[0] != "Z^3-w1"]  # for the quartic loops


def _ids(cases):
    return [c[0] for c in cases]


@pytest.mark.parametrize("name, F, weight, spec, domain", CASES, ids=_ids(CASES))
def test_cochain_laws_match_reference(name, F, weight, spec, domain):
    for x, law in ((F, "two_cocycle"), (F, "bicharacter"),
                   (braiding_R(F), "bicharacter"), (F, "unital")):
        assert check_cochain_laws(x, law, domain) == ref.check_cochain_laws(x, law, domain)


@pytest.mark.parametrize("name, F, weight, spec, domain", SMALL, ids=_ids(SMALL))
def test_three_cocycle_matches_reference(name, F, weight, spec, domain):
    phi = coboundary_phi(F)
    rep = check_cochain_laws(phi, "three_cocycle", domain)
    assert rep.holds
    assert rep == ref.check_cochain_laws(coboundary_phi(F), "three_cocycle", domain)


@pytest.mark.parametrize("name, F, weight, spec, domain", CASES, ids=_ids(CASES))
def test_algebra_laws_match_reference(name, F, weight, spec, domain):
    rep = check_ribbon_axiom(F, weight, domain)
    assert rep.holds
    assert rep == ref.check_ribbon_axiom(F, weight, domain)
    laws = ["braided_commutativity"]
    if name != "Z^3-w1":
        laws.append("quasi_associativity")
    for law in laws:
        rep = check_algebra_laws(F, law, domain)
        assert rep.holds
        assert rep == ref.check_algebra_laws(F, law, domain)


CALC_LAWS = ("leibniz", "d_squared", "d_products_vanish", "graded_trace", "closedness")


@pytest.mark.parametrize("name, F, weight, spec, domain", CASES, ids=_ids(CASES))
def test_calculus_laws_match_reference(name, F, weight, spec, domain):
    laws = [law for law in CALC_LAWS if not (name == "Z^3-w1" and law == "leibniz")]
    for twist_by in (None, F):
        for law in laws:
            rep = check_calculus(spec, law, F=twist_by, domain=domain, degree_max=2)
            assert rep.holds, (law, rep)
            assert rep == ref.check_calculus(
                spec, law, F=twist_by, domain=domain, degree_max=2
            )


def test_leibniz_on_z3_window_matches_reference():
    # the bilinear twist alone on Z^3 window(1), 216^2 basis pairs
    rep = check_calculus(Z3_CALC, "leibniz", F=Z3_F, domain=("window", 1))
    assert rep.holds
    assert rep == ref.check_calculus(Z3_CALC, "leibniz", F=Z3_F, domain=("window", 1))


# -- planted failures ------------------------------------------------------------


def test_non_cocycle_cochain3_names_the_same_counterexample():
    u = (1, 0, 0)
    planted = (
        # -1 at (u, u, u) alone on Z2^3; q^(a1*b1*c1^2) on Z^2
        (GroupSpec((2, 2, 2)), "exhaustive",
         lambda a, b, c: Unit(-1 if a == b == c == u else 1)),
        (GroupSpec((), 2), ("window", 1),
         lambda a, b, c: Unit.q_power(a[0] * b[0] * c[0] * c[0])),
    )
    for grp, domain, fn in planted:
        rep = check_cochain_laws(Cochain3(grp, fn, "planted"), "three_cocycle", domain)
        assert not rep.holds
        assert rep.detail.startswith("lhs=")
        assert rep == ref.check_cochain_laws(
            Cochain3(grp, fn, "planted"), "three_cocycle", domain
        )


def test_every_ribbon_weight_passes_as_in_reference():
    # chi(gh) = chi(g) chi(h) and R_F(h,g) R_F(g,h) = 1 on an abelian group,
    # so every weight vector satisfies the axiom
    F = OCT.cochain()
    for weight in ((1, 0, 0), (0, 1, 1), (0, 0, 0)):
        rep = check_ribbon_axiom(F, weight)
        assert rep.holds
        assert rep == ref.check_ribbon_axiom(F, weight)


NOT_Z2 = [c for c in CASES if c[0] != "Z2"]


@pytest.mark.parametrize("name, F, weight, spec, domain", NOT_Z2, ids=_ids(NOT_Z2))
def test_non_character_ribbon_names_the_same_counterexample(
    monkeypatch, name, F, weight, spec, domain
):
    # sigma's weight read with a sign slip wherever every coordinate is
    # nonzero, so sigma is no longer multiplicative (on Z2 that slip is
    # again a character)
    real = GroupSpec.char_eval

    def slipped(self, w, g):
        u = real(self, w, g)
        return -u if all(self.reduce(g)) else u

    monkeypatch.setattr(GroupSpec, "char_eval", slipped)
    rep = check_ribbon_axiom(F, weight, domain)
    assert not rep.holds
    assert rep == ref.check_ribbon_axiom(F, weight, domain)


def test_non_bicharacter_twist_names_the_same_counterexample():
    grp = GroupSpec((), 2)
    domain = ("window", 1)
    for expr in ("i1*i1*j1", "i1*j1*j2"):
        F = Cochain2.from_expr(grp, ("laurent",), expr)
        for law in ("bicharacter", "two_cocycle"):
            rep = check_cochain_laws(F, law, domain)
            assert not rep.holds
            assert rep == ref.check_cochain_laws(F, law, domain)


def _unsigned_differential(spec, x):
    """differential without the Koszul sign (-1)^(#S below i)."""
    out = []
    for (g, S), c in x.terms.items():
        for i in range(1, spec.n + 1):
            if i in S:
                continue
            if spec.kind == "characters":
                ci = spec.chi(i, g) - 1
            else:
                ci = g[i - 1]
            if ci:
                out.append(((g, tuple(sorted(S + (i,)))), c * ci))
    return Form._keyed(spec, out)


@pytest.mark.parametrize("name, F, weight, spec, domain", SMALL, ids=_ids(SMALL))
def test_sign_slip_in_differential_names_the_same_counterexample(
    monkeypatch, name, F, weight, spec, domain
):
    monkeypatch.setattr(calculus, "differential", _unsigned_differential)
    failed = set()
    for law in CALC_LAWS:
        rep = check_calculus(spec, law, F=F, domain=domain, degree_max=2)
        assert rep == ref.check_calculus(spec, law, F=F, domain=domain, degree_max=2)
        if not rep.holds:
            failed.add(law)
    if spec.n >= 2:
        assert {"leibniz", "d_squared"} <= failed


@pytest.mark.parametrize("name, F, weight, spec, domain", CASES, ids=_ids(CASES))
def test_graded_trace_without_grade_character_names_the_same_counterexample(
    monkeypatch, name, F, weight, spec, domain
):
    # the graded trace read with chi_total = 1; it fails where chi is
    # nontrivial, everywhere but on the derivations calculi of Z^2 and Z^3
    monkeypatch.setattr(CalculusSpec, "chi_total", lambda self, g: Unit.one())
    rep = check_calculus(spec, "graded_trace", F=F, domain=domain)
    assert rep.holds == (spec.kind == "derivations")
    assert rep == ref.check_calculus(spec, "graded_trace", F=F, domain=domain)


# -- the direct evaluators and the torsion-keyed character table ---------------


@pytest.mark.parametrize("F, chi", [
    (OCT.cochain(), OCT.ribbon_weight()),
    (TOR.cochain(), ()),
    # phi_F(a, b, c) != phi_F(b, a, c) here, so argument order shows
    (Cochain2.from_expr(Z4, ("root_of_unity", 4), "i1*j1*j1*j1"), (1,)),
    (Cochain2.from_expr(GroupSpec((), 2), ("laurent",), "i1*i1*j2"), ()),
], ids=["octonion", "torus", "Z4-quartic", "Z^2-cubic"])
def test_direct_factories_match_per_call_evaluators(F, chi):
    grp = F.group
    face = twist.direct_face_factor(F, chi)
    lam = twist.direct_lambda_factor(F, chi)
    for k in range(3):
        for t in sample_tuples(grp, k + 1, 1, 20, 5):
            for i in range(k + 2):
                assert face(k, i, t) == ref.direct_face_factor(F, chi, k, i, t)
        for t in sample_tuples(grp, k, 1, 20, 5):
            assert lam(k, t) == ref.direct_lambda_factor(F, chi, k, t)


def test_free_group_character_table_is_keyed_by_torsion():
    for grp, weight in ((GroupSpec((), 2), ()), (GroupSpec((2, 3), 1), (1, 2))):
        table = _chi_table(grp, weight)
        for g in grp.window_elements(2):
            assert table[g[:grp.torsion_rank]] == grp.char_eval(weight, g)
    assert _chi_table(GroupSpec((), 2), ()) == {(): Unit.one()}
    assert len(_chi_table(GroupSpec((2, 3), 1), (1, 2))) == 6


# -- call counts ---------------------------------------------------------------


# GroupSpec.reduce calls on the torus Z^2 window(1), building F included:
# 423 and 720 with each operand built once, 891 and 3312 when the loops
# rebuilt basis elements, sigma-images, basis forms and differentials
RIBBON_BOUND = 500
LEIBNIZ_BOUND = 800


def _reduce_calls(monkeypatch, fn) -> int:
    calls = 0
    real = GroupSpec.reduce

    def counted(self, coords):
        nonlocal calls
        calls += 1
        return real(self, coords)

    with monkeypatch.context() as m:
        m.setattr(GroupSpec, "reduce", counted)
        assert fn().holds
    return calls


def test_law_checks_build_operands_once(monkeypatch):
    F = TOR.cochain
    spec = TOR.calculus()
    w1 = ("window", 1)
    ribbon = _reduce_calls(monkeypatch, lambda: check_ribbon_axiom(F(), (), w1))
    leibniz = _reduce_calls(
        monkeypatch, lambda: check_calculus(spec, "leibniz", F=F(), domain=w1)
    )
    ribbon_ref = _reduce_calls(monkeypatch, lambda: ref.check_ribbon_axiom(F(), (), w1))
    leibniz_ref = _reduce_calls(
        monkeypatch, lambda: ref.check_calculus(spec, "leibniz", F=F(), domain=w1)
    )
    assert (ribbon, leibniz) <= (RIBBON_BOUND, LEIBNIZ_BOUND), (ribbon, leibniz)
    assert ribbon_ref > RIBBON_BOUND and leibniz_ref > LEIBNIZ_BOUND
