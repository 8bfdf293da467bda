"""The sampled checks that the exact row compositions replaced, kept as the
reference: the random-cochain loop of cyclic.mixed_complex_report and the
random part (b) of twist.verify_transport, as they were, plus the random
cochain they drew (formerly CyclicCochain.random).
"""

import random

from quasicyc.cochains import LawReport
from quasicyc.cyclic import (
    CyclicCochain,
    OperatorCache,
    _apply_atoms,
    apply_b,
    apply_rows,
    b_atoms,
    full_tuples,
    space_dim,
)
from quasicyc.scalars import Scalar
from quasicyc.twist import TransportPrefactor

MIXED_LAWS = ("b_squared", "B_squared", "bB_plus_Bb", "lambda_order", "N_lambda")


def random_cochain(group, chi, degree, rng) -> CyclicCochain:
    """A cochain with entries drawn uniformly from -3..3."""
    vec = [Scalar.rational(rng.randint(-3, 3)) for _ in range(space_dim(group, degree))]
    return CyclicCochain(group, chi, degree, vec)


def sampled_mixed_complex_report(group, chi, degree_max, count=50, seed=0) -> list[LawReport]:
    """b^2 = 0, B^2 = 0, bB + Bb = 0, lambda^(k+1) = id, N(lambda - id) = 0
    on seeded random integer cochains."""
    chi = group.check_weight(chi)
    ops = OperatorCache(group, chi)
    rng = random.Random(seed)
    domain = f"{count} random cochains per degree <= {degree_max}"
    fails = {}

    def run(op, k, vec):
        return apply_rows(ops.rows(op, k), vec, 0)

    for k in range(degree_max + 1):
        for trial in range(count):
            vec = [rng.randint(-3, 3) for _ in range(space_dim(group, k))]
            tag = f"degree {k} trial {trial}"
            if any(run("b", k + 1, run("b", k, vec))):
                fails.setdefault("b_squared", tag)
            lam = vec
            for _ in range(k + 1):
                lam = run("lambda", k, lam)
            if lam != vec:
                fails.setdefault("lambda_order", tag)
            n_lam = run("N", k, run("lambda", k, vec))
            n_vec = run("N", k, vec)
            if n_lam != n_vec:
                fails.setdefault("N_lambda", tag)
            if k >= 1:
                anti = [
                    a + b
                    for a, b in zip(
                        run("b", k - 1, run("B", k, vec)),
                        run("B", k + 1, run("b", k, vec)),
                    )
                ]
                if any(anti):
                    fails.setdefault("bB_plus_Bb", tag)
            if k >= 2:
                if any(run("B", k - 1, run("B", k, vec))):
                    fails.setdefault("B_squared", tag)

    return [LawReport(law, domain, law not in fails, fails.get(law)) for law in MIXED_LAWS]


def _scaled(phi, pref) -> CyclicCochain:
    """phi times the prefactor, pointwise at each support tuple."""
    vec = [pref.value(t) * v for t, v in zip(full_tuples(phi.group, phi.degree), phi.vec)]
    return CyclicCochain(phi.group, phi.chi, phi.degree, vec)


def sampled_transport_intertwines_b(F, chi, group, degree_max, seed=0, count=100):
    """None when b^F(T phi) = T(b phi) on `count` random cochains of random
    degrees <= degree_max, else the degree of the first that failed; b^F
    is the conjugated pulls of b's atoms."""
    chi = group.check_weight(chi)
    pref = TransportPrefactor(F)
    wrap = pref.wrap  # read from the class per call, as verify_transport does
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(0, degree_max)
        phi = random_cochain(group, chi, k, rng)
        atoms = [(c, tuple(map(wrap, pulls))) for c, pulls in b_atoms(group, chi, k)]
        lhs = _apply_atoms(_scaled(phi, pref), atoms, k + 1)
        rhs = _scaled(apply_b(phi), pref)
        if not (lhs - rhs).is_zero():
            return f"degree {k} random cochain"
    return None
