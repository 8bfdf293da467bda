"""Cotwist transport of cyclic cochains and the twisted operator suite.

A unital 2-cochain F transports a degree-k cochain by the left-to-right
prefactor

    P(g0..gk) = F(g0,g1) F(g0g1,g2) ... F(g0...g_{k-1},gk)

and the twisted cyclic operators are the conjugates X^F = P X P^{-1}.
Every factor after the first starts from the product g0g1, so they
multiply to the prefactor of the shorter tuple (g0g1, g2, .., gk), again a
support tuple when (g0..gk) is one:

    P(g0, g1, .., gk) = F(g0, g1) P(g0g1, g2, .., gk),   P(g0) = 1.

TransportPrefactor (defined in cyclic, whose row store reads it) evaluates
P by this recursion, memoized over every tuple it reaches, so a tuple
costs one F lookup and one product; its per-degree lists, transport and
the conjugated pulls (its wrap, which conjugator returns) all read it.  P
is a `scalars.Unit` when F's values are Units, so a conjugated coefficient
is a sum of exponents.  transport and transport_inverse evaluate P, or
P^{-1}, only at the nonzero entries of the cochain.  On stored rows
conjugation is a diagonal scaling (an addition of codes where P is a unit),
kept in the twisted store cyclic.operators(group, chi, F):
cohomology_dims(twist=), apply_b/lambda_twisted and verify_transport read
it, so the hh and hc dims and the certificate of one twist build each P and
each row once.
Conjugation is the normative definition: the conjugated module satisfies
every cocyclic identity automatically, so identity checks on it exercise
the transport code, not the algebra.  The group-like specializations of
the braided face and cyclic formulas (inner factor F(g_i, g_{i+1}), top
and cyclic factors built from the braiding, the associator defect and the
ribbon character) are a secondary evaluator; their agreement with the
conjugated operators is reported, never asserted, since it fails by
associator factors whenever F is not a 2-cocycle.
"""

from __future__ import annotations

import os
import time

from .cochains import Cochain2, braiding_R, coboundary_phi
from .cyclic import (
    CyclicCochain,
    TransportPrefactor,
    _apply_stored,
    _check_same_group,
    face_pull,
    full_tuples,
    identity_suite,
    lambda_pull,
    operator_counterexample,
    operators,
    sample_tuples,
)
from .groups import GroupSpec, InfiniteGroup
from .linalg import row_set


def transport(phi: CyclicCochain, F: Cochain2) -> CyclicCochain:
    """Multiply pointwise by the prefactor; invertible, degree-preserving."""
    _check_same_group(F, phi.group)
    return _scale(phi, TransportPrefactor(F).value)


def transport_inverse(phi: CyclicCochain, F: Cochain2) -> CyclicCochain:
    _check_same_group(F, phi.group)
    return _scale(phi, TransportPrefactor(F).inverse_value)


def _scale(phi: CyclicCochain, factor) -> CyclicCochain:
    # multiply each nonzero entry by factor at its support tuple, evaluated
    # there only
    tuples = full_tuples(phi.group, phi.degree)
    vec = [v if v.is_zero() else factor(t) * v for t, v in zip(tuples, phi.vec)]
    return CyclicCochain(phi.group, phi.chi, phi.degree, vec)


def conjugator(F: Cochain2):
    """wrap(pull) -> pull conjugated by transport, TransportPrefactor.wrap."""
    return TransportPrefactor(F).wrap


def apply_b_twisted(phi: CyclicCochain, F: Cochain2) -> CyclicCochain:
    return _apply_stored(phi, "b", F)


def apply_lambda_twisted(phi: CyclicCochain, F: Cochain2) -> CyclicCochain:
    return _apply_stored(phi, "lambda", F)


# ---------------------------------------------------------------------------
# direct group-like evaluators (secondary; reported, never asserted)

def direct_face_factor(F: Cochain2, chi):
    """(k, i, t) -> factor of the direct twisted face d_i^F at the degree-k
    output tuple t, from one R_F and phi_F per factory.

    Inner faces pick up the twisted product factor F(g_i, g_{i+1}); the top
    face braids the last leg across the rest and multiplies by the ribbon
    character and the twisted product factor.
    """
    grp = F.group
    R = braiding_R(F)
    phi3 = coboundary_phi(F)

    def factor(k: int, i: int, t: tuple):
        if i <= k:
            return F.value(t[i], t[i + 1])
        head = t[0]
        body = grp.mul_all(t[1:k + 1])
        last = t[k + 1]
        return (
            R.value(last, grp.mul(head, body))
            * phi3.value(last, head, body)
            * grp.char_eval(chi, last)
            * F.value(last, head)
        )

    return factor


def direct_lambda_factor(F: Cochain2, chi):
    """(k, t) -> factor of the direct twisted cyclic operator at the degree-k
    tuple t, from one R_F per factory."""
    grp = F.group
    R = braiding_R(F)

    def factor(k: int, t: tuple):
        c = R.value(t[k], grp.mul_all(t[:k])) * grp.char_eval(chi, t[k])
        return -c if k % 2 else c

    return factor


# ---------------------------------------------------------------------------
# verification harness

def _timestamp() -> str:
    # honor SOURCE_DATE_EPOCH so a rerun with the same inputs is
    # byte-identical; default epoch 0
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def verify_transport(
    F: Cochain2,
    chi,
    group: GroupSpec,
    degree_max: int,
    calculus=None,
    window: int | None = None,
    samples: int = 60,
    seed: int = 0,
    preset: str = "custom",
) -> dict:
    """End-to-end transport certificate.

    (a) conjugated operators satisfy the cocyclic identities,
    (b) transport intertwines the untwisted and conjugated coboundaries:
        b^F T = T b on C^k for every k <= degree_max, decided exactly on a
        finite group on the rows that cohomology_dims(twist=) eliminates,
        the b rows of the twisted store (cyclic.operators(group, chi, F)):
        b^F T - T b, T the diagonal row sets of the prefactor, goes to
        cyclic.operator_counterexample as [(1, b^F_k, T_k), (-1, T_{k+1},
        b_k)]; skipped on infinite groups;
    (c) the twisted-calculus character equals transport of the untwisted one,
    (d) direct group-like evaluators vs conjugated operators, informational.
    Finite groups run exhaustively; infinite ones need a window bound.
    """
    chi = group.check_weight(chi)
    if group.free_rank and window is None:
        raise InfiniteGroup("exhaustive transport verification needs a finite group")
    finite = not group.free_rank
    # pointwise rows read every support tuple of a finite group, or the
    # sample that sample_tuples draws from the window
    pointwise = "exhaustive" if finite else f"window({window}) x{samples}"
    identities = []

    def add(name, status, counterexample=None, domain=pointwise):
        identities.append(cert_row(name, status, domain, counterexample))

    # one prefactor memo for the whole certificate, the twisted store's:
    # (a) and (d) read its conjugated pulls, (b) the store's rows, (c) its
    # values
    store = operators(group, chi, F)
    pref = store.prefactor
    wrap = pref.wrap

    # (a) cocyclic identities for the conjugated operators
    for rep in identity_suite(
        group, chi, degree_max, wrap=wrap,
        window=window, samples=samples, seed=seed,
    ):
        add(
            f"conjugated_{rep.law}",
            "pass" if rep.holds else "fail",
            None if rep.holds else repr(rep.counterexample),
        )

    # (b) b^F T = T b as operators, T the diagonal rows of the prefactor
    if finite:
        plain = operators(group, chi).rows
        bad = None
        T = [row_set([[(i, p)] for i, p in enumerate(v)], len(v), store.N)
             for v in map(pref.values, range(degree_max + 2))]
        for k in range(degree_max + 1):
            bad = operator_counterexample(
                group, k, k + 1, [(1, store.rows("b", k), T[k]), (-1, T[k + 1], plain("b", k))]
            )
            if bad is not None:
                break
        add("transport_intertwines_b", "pass" if bad is None else "fail", bad,
            f"exact: every cochain, degrees <= {degree_max}")
    else:
        add("transport_intertwines_b", "skipped: needs a finite group", domain=None)

    # (c) twisted-calculus character = transport of the untwisted character
    if calculus is not None:
        from .calculus import character_direct

        n = calculus.n
        bad = None
        for t in sample_tuples(group, n, window, samples, seed):
            twisted = character_direct(calculus, t, F)
            plain = character_direct(calculus, t, None)
            if twisted != pref.value(t) * plain:
                bad = repr(t)
                break
        add("character_transport", "pass" if bad is None else "fail", bad)

    # (d) informational: direct group-like evaluators vs conjugation
    face_at, lambda_at = direct_face_factor(F, chi), direct_lambda_factor(F, chi)
    for k in range(degree_max + 1):
        faces = [wrap(face_pull(group, chi, k, i)) for i in range(k + 2)]
        bad = next((
            f"face {i} at {t!r}"
            for t in sample_tuples(group, k + 1, window, samples, seed)
            for i, face in enumerate(faces) if face_at(k, i, t) != face(t)[1]
        ), None)
        add(f"direct_faces_degree_{k}", "agree" if bad is None else "disagree", bad)
        lam = wrap(lambda_pull(group, chi, k))
        bad = next((
            repr(t) for t in sample_tuples(group, k, window, samples, seed)
            if lambda_at(k, t) != lam(t)[1]
        ), None)
        add(f"direct_lambda_degree_{k}", "agree" if bad is None else "disagree", bad)

    return {
        "preset": preset,
        "degrees": degree_max,
        "identities": identities,
        "timestamp": _timestamp(),
    }


def cert_row(name: str, status: str, domain=None, counterexample=None) -> dict:
    """One certificate row; domain and counterexample are listed when given."""
    row = {"name": name, "status": status}
    if domain is not None:
        row["domain"] = domain
    if counterexample is not None:
        row["counterexample"] = counterexample
    return row


def certificate_ok(cert: dict) -> bool:
    """True when no asserted identity failed; informational rows are
    agree/disagree or holds/does not hold and never fail a certificate."""
    return all(row["status"] != "fail" for row in cert["identities"])
