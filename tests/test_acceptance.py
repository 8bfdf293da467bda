"""Acceptance battery: one test per shipped guarantee, exact arithmetic only.

Each test carries its wall-clock budget as an assertion; pytest -v gives the
per-guarantee pass/fail line.  Nothing here tolerates approximation, every
comparison is scalar equality in the exact ring.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction

from quasicyc.calculus import (
    character_closed,
    character_direct,
    check_calculus,
)
from quasicyc.cochains import Cochain2, check_cochain_laws, coboundary_phi
from quasicyc.cyclic import (
    CyclicCochain,
    apply_b,
    apply_rows,
    atom_rows,
    apply_lambda,
    b_atoms,
    cohomology_dims,
    full_tuples,
    identity_suite,
    lambda_pull,
    mixed_complex_report,
    periodicity_report,
    s_atoms,
)
from quasicyc.groups import GroupSpec
from quasicyc.presets import builtin
from quasicyc.quasialgebra import (
    GradedElement,
    associator_defect,
    cayley_dickson_product,
    norm_square,
    twisted_product,
)
from quasicyc.scalars import RATIONAL, Scalar
from quasicyc.twist import (
    apply_b_twisted,
    apply_lambda_twisted,
    certificate_ok,
    transport,
    verify_transport,
)

E3 = GroupSpec((2, 2, 2))
OCT = builtin("octonion")
OCT_F = OCT.cochain()
OCT_CHI = OCT.ribbon_weight()
TOR = builtin("torus")
TOR_F = TOR.cochain()

U, V, W = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@contextlib.contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def dot(a, b):
    return twisted_product(OCT_F, a, b)


def basis(g):
    return GradedElement.basis(E3, g)


def det3(g, h, k):
    m = [g, h, k]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_01_octonion_basis_relations_and_associator():
    with budget(1):
        u, v, w = basis(U), basis(V), basis(W)
        minus_e = -GradedElement.basis(E3, E3.identity())
        assert dot(u, u) == minus_e
        assert dot(v, v) == minus_e
        assert dot(w, w) == minus_e
        for a, b in ((u, v), (u, w), (v, w)):
            assert dot(a, b) == -dot(b, a)
        assert dot(u, dot(v, w)) == -dot(dot(u, v), w)
        for g, h, k in itertools.product(E3.elements(), repeat=3):
            want = Scalar.rational(-1 if det3(g, h, k) % 2 else 1)
            assert associator_defect(OCT_F, g, h, k) == want


def _alternative_and_norm_multiplicative(x, y):
    xx = dot(x, x)
    return (
        dot(x, dot(x, y)) == dot(xx, y)
        and dot(dot(y, x), x) == dot(y, xx)
        and norm_square(dot(x, y)) == norm_square(x) * norm_square(y)
    )


def _cd_norm(x):
    return sum(c * c for c in x)


def _cd_alternative_and_norm_multiplicative(x, y):
    p = cayley_dickson_product
    xx = p(x, x)
    return (
        p(x, p(x, y)) == p(xx, y)
        and p(p(y, x), x) == p(y, xx)
        and _cd_norm(p(x, y)) == _cd_norm(x) * _cd_norm(y)
    )


def test_02_octonion_structural_oracle():
    with budget(5):
        els = E3.elements()
        # basis pairs, twisted algebra and the dimension-8 doubling oracle
        for g, h in itertools.product(els, repeat=2):
            assert _alternative_and_norm_multiplicative(basis(g), basis(h))
        for i, j in itertools.product(range(8), repeat=2):
            x = [Fraction(int(t == i)) for t in range(8)]
            y = [Fraction(int(t == j)) for t in range(8)]
            assert _cd_alternative_and_norm_multiplicative(x, y)
        # same battery on seeded random rational elements of both algebras
        rng = random.Random(0)
        for _ in range(100):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(16)
            ]
            x = GradedElement(E3, list(zip(els, coeffs[:8])))
            y = GradedElement(E3, list(zip(els, coeffs[8:])))
            assert _alternative_and_norm_multiplicative(x, y)
            assert _cd_alternative_and_norm_multiplicative(coeffs[:8], coeffs[8:])


def test_03_volume_character_all_routes_agree():
    with budget(10):
        spec = OCT.calculus()
        uvw = (1, 1, 1)
        target = character_direct(spec, (uvw, U, V, W))
        assert target == Scalar.rational(-8)
        for t in itertools.product(E3.elements(), repeat=4):
            direct = character_direct(spec, t)
            assert direct == character_closed(spec, "general", t)
            assert direct == character_closed(spec, "octonion", t)
            if not E3.is_identity(E3.mul_all(t)):
                assert direct.is_zero()


def test_04_character_is_cyclic_cocycle_untwisted_and_twisted():
    with budget(5):
        spec = OCT.calculus()
        phi = CyclicCochain(
            E3, OCT_CHI, 3, [character_closed(spec, "general", t) for t in full_tuples(E3, 3)]
        )
        zero4 = CyclicCochain.zero(E3, OCT_CHI, 4)
        assert apply_lambda(phi) == phi
        assert apply_b(phi) == zero4
        moved = transport(phi, OCT_F)
        assert apply_lambda_twisted(moved, OCT_F) == moved
        assert apply_b_twisted(moved, OCT_F) == zero4


def test_05_cocyclic_identity_sweep():
    with budget(60):
        for orders in ((2,), (2, 2), (2, 2, 2)):
            grp = GroupSpec(orders)
            for chi in ((0,) * len(orders), (1,) * len(orders)):
                for rep in identity_suite(grp, chi, 3):
                    assert rep.holds, str(rep)


def test_06_mixed_complex_laws_on_random_cochains():
    with budget(30):
        for orders in ((2,), (2, 2), (2, 2, 2)):
            grp = GroupSpec(orders)
            for chi in ((0,) * len(orders), (1,) * len(orders)):
                for rep in mixed_complex_report(grp, chi, 3, count=50, seed=0):
                    assert rep.holds, str(rep)


def test_07_periodicity_preserves_cyclic_cocycles():
    with budget(30):
        for orders in ((2,), (2, 2)):
            grp = GroupSpec(orders)
            for chi in ((0,) * len(orders), (1,) * len(orders)):
                for rep in periodicity_report(grp, chi, 2):
                    assert rep.holds, str(rep)
        # volume character leg, streamed on integer vectors; the omitted
        # -1/(n(n+1)) scale is a nonzero rational, invariance unaffected
        spec = OCT.calculus()
        vec = []
        for t in full_tuples(E3, 3):
            val = character_closed(spec, "general", t)
            assert val.tag == RATIONAL and val.payload.denominator == 1
            vec.append(int(val.payload))
        sv = apply_rows(atom_rows(E3, s_atoms(E3, OCT_CHI, 3), 5), vec, 0)
        assert all(type(v) is int for v in sv)
        lam_rows = atom_rows(E3, [(1, (lambda_pull(E3, OCT_CHI, 5),))], 5)
        assert apply_rows(lam_rows, sv, 0) == sv
        bv = apply_rows(atom_rows(E3, b_atoms(E3, OCT_CHI, 5), 6), sv, 0)
        assert not any(bv)


def test_08_twist_transport_certificates_and_cohomology():
    with budget(120):
        cert = verify_transport(OCT_F, OCT_CHI, E3, 3, calculus=OCT.calculus())
        assert certificate_ok(cert), cert
        cert = verify_transport(
            TOR_F, (), TOR.group, 2, calculus=TOR.calculus(), window=3
        )
        assert certificate_ok(cert), cert
        for orders, expr in (((2,), "i1*j1"), ((2, 2), "i1*j1+i1*j2+i2*j2")):
            grp = GroupSpec(orders)
            F = Cochain2.from_expr(grp, ("root_of_unity", 2), expr)
            for chi in ((0,) * len(orders), (1,) * len(orders)):
                for which in ("hh", "hc"):
                    plain = cohomology_dims(grp, chi, 2, which)
                    moved = cohomology_dims(grp, chi, 2, which, twist=F)
                    assert [r["dim"] for r in plain] == [r["dim"] for r in moved]


def test_09_torus_relations_and_closed_forms():
    with budget(5):
        grp = TOR.group
        spec = TOR.calculus()
        u, v = (1, 0), (0, 1)
        q = Scalar.laurent({1: Fraction(1)})
        bu, bv = GradedElement.basis(grp, u), GradedElement.basis(grp, v)
        assert twisted_product(TOR_F, bv, bu) == q * twisted_product(TOR_F, bu, bv)
        rng = random.Random(0)
        for _ in range(500):
            g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
            t = (grp.inv(grp.mul(g1, g2)), g1, g2)
            assert character_closed(spec, "torus", t) == character_direct(spec, t)
            assert character_closed(spec, "torus_twisted", t) == character_direct(
                spec, t, F=TOR_F
            )
        # normally ordered powers collapse to plain basis elements
        for i in range(-3, 4):
            for j in range(-3, 4):
                iu = (1, 0) if i >= 0 else (-1, 0)
                jv = (0, 1) if j >= 0 else (0, -1)
                acc = GradedElement.basis(grp, grp.identity())
                for _ in range(abs(i)):
                    acc = twisted_product(TOR_F, acc, GradedElement.basis(grp, iu))
                for _ in range(abs(j)):
                    acc = twisted_product(TOR_F, acc, GradedElement.basis(grp, jv))
                assert acc == GradedElement.basis(grp, (i, j))


def test_10_products_of_differentials_vanish_on_support():
    with budget(10):
        rep = check_calculus(OCT.calculus(), "d_products_vanish", F=OCT_F, degree_max=3)
        assert rep.holds, str(rep)


def test_11_graded_trace_laws():
    with budget(10):
        spec = OCT.calculus()
        rep = check_calculus(spec, "closedness", F=OCT_F)
        assert rep.holds, str(rep)
        rep = check_calculus(spec, "graded_trace", F=OCT_F)
        assert rep.holds, str(rep)


def test_12_coboundary_of_random_unit_cochains():
    with budget(10):
        for orders, order_n in (((2, 2), 2), ((3,), 3)):
            grp = GroupSpec(orders)
            els = grp.elements()
            for s in range(50):
                rng = random.Random(f"cob:{orders}:{s}")
                table = {}
                for g in els:
                    for h in els:
                        unital = grp.is_identity(g) or grp.is_identity(h)
                        table[(g, h)] = (
                            Scalar.one()
                            if unital
                            else Scalar.root_of_unity(order_n, rng.randrange(order_n))
                        )
                F = Cochain2(
                    grp,
                    lambda g, h, tb=table, gr=grp: tb[(gr.reduce(g), gr.reduce(h))],
                    "random units",
                )
                phi = coboundary_phi(F)
                assert check_cochain_laws(phi, "unital").holds
                assert check_cochain_laws(phi, "three_cocycle").holds
