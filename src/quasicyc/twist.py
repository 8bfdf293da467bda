"""Cotwist transport of cyclic cochains and the twisted operator suite.

A unital 2-cochain F transports a degree-k cochain by the left-to-right
prefactor

    P(g0..gk) = F(g0,g1) F(g0g1,g2) ... F(g0...g_{k-1},gk)

and the twisted cyclic operators are the conjugates X^F = P X P^{-1}.
TransportPrefactor.value returns P as a `scalars.Unit` when F's values are
Units, so a conjugated coefficient is a sum of exponents and P^{-1} is the
negated exponents.  A TransportPrefactor memoizes P and P^{-1} per tuple,
and lists them over the support tuples of a degree once per degree
(values, inverses), which transport, transport_inverse and row_conjugator
read.  On stored operator rows conjugation is a diagonal scaling:
row_conjugator multiplies row r by P at its output tuple and column col by
P^{-1} at its input tuple, and cohomology_dims(twist=) and
apply_b/lambda_twisted read the stored rows scaled that way;
verify_transport decides b^F T = T b on those b rows, T the diagonal rows
of P.  Conjugated pulls (conjugator) serve the pointwise checks.
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
    _apply_stored,
    compose_rows,
    face_pull,
    full_tuples,
    identity_suite,
    lambda_pull,
    row_counterexample,
    sample_tuples,
    stored_rows,
)
from .groups import GroupSpec, InfiniteGroup, SpecMismatch
from .scalars import Unit


class TransportPrefactor:
    """Memoized evaluator of the left-to-right transport prefactor and of
    its inverse, one memo each, and on a finite group their lists over the
    support tuples of a degree, one per degree and side."""

    __slots__ = ("F", "_memo", "_inverse", "_lists")

    def __init__(self, F: Cochain2):
        self.F = F
        self._memo = {}
        self._inverse = {}
        self._lists = {}  # k -> values(k); ~k -> inverses(k)

    def value(self, gs: tuple):
        out = self._memo.get(gs)
        if out is None:
            grp = self.F.group
            acc = Unit.one()
            prefix = gs[0]
            for g in gs[1:]:
                acc = acc * self.F.value(prefix, g)
                prefix = grp.mul(prefix, g)
            out = self._memo[gs] = acc
        return out

    def inverse_value(self, gs: tuple):
        out = self._inverse.get(gs)
        if out is None:
            out = self._inverse[gs] = (self._memo.get(gs) or self.value(gs)).inverse()
        return out

    def values(self, k: int) -> list:
        """P at each support tuple of degree k, in full_tuples order."""
        out = self._lists.get(k)
        if out is None:
            out = self._lists[k] = [self.value(t) for t in full_tuples(self.F.group, k)]
        return out

    def inverses(self, k: int) -> dict:
        """{1: P^{-1}, -1: -P^{-1}} at each support tuple of degree k, in
        full_tuples order: a +-1 row entry reads its product from a list."""
        out = self._lists.get(~k)
        if out is None:
            inv = [self.inverse_value(t) for t in full_tuples(self.F.group, k)]
            out = self._lists[~k] = {1: inv, -1: [-x for x in inv]}
        return out


def transport(phi: CyclicCochain, F: Cochain2) -> CyclicCochain:
    """Multiply pointwise by the prefactor; invertible, degree-preserving."""
    _check_same_group(F, phi.group)
    return _scale(phi, TransportPrefactor(F).values(phi.degree))


def transport_inverse(phi: CyclicCochain, F: Cochain2) -> CyclicCochain:
    _check_same_group(F, phi.group)
    return _scale(phi, TransportPrefactor(F).inverses(phi.degree)[1])


def _check_same_group(F: Cochain2, group: GroupSpec):
    if F.group != group:
        raise SpecMismatch("cochain and twist live on different groups")


def _scale(phi: CyclicCochain, factors: list) -> CyclicCochain:
    # multiply each nonzero entry by the factor listed at its support tuple
    vec = [f * v if not v.is_zero() else v for f, v in zip(factors, phi.vec)]
    return CyclicCochain(phi.group, phi.chi, phi.degree, vec)


def conjugator(F: Cochain2):
    """wrap(pull) -> pull conjugating one atom by transport.

    Coefficients telescope under composition, so conjugating every atom of
    a composite equals conjugating the composite.
    """
    return _conjugator(TransportPrefactor(F))


def _conjugator(pref: TransportPrefactor):
    def wrap(pull):
        def wrapped(t):
            t_in, c = pull(t)
            return t_in, pref.value(t) * c * pref.inverse_value(t_in)

        return wrapped

    return wrap


def row_conjugator(pref: TransportPrefactor, group: GroupSpec):
    """conj(rows, out_degree, in_degree) -> the rows of P X P^{-1}, for the
    rows of an operator X: C^in_degree -> C^out_degree.

    This is conjugation written on rows, a diagonal scaling: the entry
    (r, col, c) becomes P(out_r) c P^{-1}(in_col), out_r and in_col the
    support tuples of row r and column col.  P and P^{-1} are the lists
    pref.values and pref.inverses, built once per degree and side for as
    long as pref lives; a +-1 entry takes P^{-1} or -P^{-1} from a list,
    one product per entry.
    """
    _check_same_group(pref.F, group)

    def conj(rows, out_degree, in_degree):
        signed = pref.inverses(in_degree)
        inv = signed[1]
        return [
            [(col, p * (signed[c][col] if c.__class__ is int else c * inv[col]))
             for col, c in row]
            for p, row in zip(pref.values(out_degree), rows)
        ]

    return conj


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
        the stored b rows scaled by row_conjugator, composed with the
        diagonal rows of T; skipped on infinite groups;
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

    # one prefactor memo for the whole certificate: (a) and (d) read the
    # same conjugated pulls, (b) rows scaled by it, (c) the same transport
    pref = TransportPrefactor(F)
    wrap = _conjugator(pref)

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
        rows, conj = stored_rows(group, chi), row_conjugator(pref, group)
        bad = None
        T = [[[(i, p)] for i, p in enumerate(pref.values(k))] for k in range(degree_max + 2)]
        for k in range(degree_max + 1):
            lhs = compose_rows(conj(rows("b", k), k + 1, k), T[k])
            rhs = compose_rows(T[k + 1], rows("b", k))
            bad = row_counterexample(group, k, k + 1, lhs, rhs)
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
