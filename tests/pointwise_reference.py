"""The pointwise kernels as they were before each atom, prefactor inverse
and wedge sign was evaluated once per check, kept as the reference:

* form_product and differential test w_S ^ w_T by set intersection and
  count the shuffle sign per term pair, multiply every commutation
  character (1 for derivations), and read a derivation's coordinate
  through GroupSpec.reduce;
* identity_suite builds and wraps a fresh atom at every use and evaluates
  it at every tuple of every case that uses it.
"""

from quasicyc.calculus import Form
from quasicyc.cochains import LawReport
from quasicyc.cyclic import (
    _check_degree_max,
    _sides_equal,
    degeneracy_pull,
    face_pull,
    lambda_pull,
    sample_tuples,
)
from quasicyc.groups import InfiniteGroup, SpecMismatch
from quasicyc.scalars import Unit

_UNIT_ONE = Unit.one()


def _shuffle_sign(S, T) -> int:
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv % 2 else 1


def form_product(spec, x, y, F=None):
    if x.spec != spec or y.spec != spec:
        raise SpecMismatch("forms do not belong to this calculus")
    if F is not None and F.group != spec.group:
        raise SpecMismatch("cochain group does not match the calculus group")
    grp = spec.group
    out = []
    for (g, S), cx in x.terms.items():
        for (h, T), cy in y.terms.items():
            if set(S) & set(T):
                continue
            u = _UNIT_ONE if F is None else F.value(g, h)
            for i in S:
                u = u * spec.chi(i, h)
            c = u * (cx * cy)
            if _shuffle_sign(S, T) < 0:
                c = -c
            out.append(((grp.mul(g, h), tuple(sorted(S + T))), c))
    return Form._keyed(spec, out)


def differential(spec, x):
    if x.spec != spec:
        raise SpecMismatch("form does not belong to this calculus")
    out = []
    for (g, S), c in x.terms.items():
        for i in range(1, spec.n + 1):
            if i in S:
                continue
            if spec.kind == "characters":
                ci = spec.chi(i, g) - 1
            else:
                ci = spec.group.reduce(g)[i - 1]
            if not ci:
                continue
            below = sum(1 for s in S if s < i)
            coeff = c * ci
            if below % 2:
                coeff = -coeff
            out.append(((g, tuple(sorted(S + (i,)))), coeff))
    return Form._keyed(spec, out)


def identity_suite(group, chi, degree_max, wrap=None, window=None, samples=40, seed=0):
    _check_degree_max(degree_max)
    chi = group.check_weight(chi)
    W = wrap if wrap is not None else (lambda pull: pull)
    if group.free_rank and window is None:
        raise InfiniteGroup("identity suite on an infinite group needs a window")
    domain = f"pointwise, degrees <= {degree_max}"
    if group.free_rank:
        domain += f", window({window}) x{samples}"
    pool = {}

    def tuples_for(out_degree):
        if out_degree not in pool:
            pool[out_degree] = sample_tuples(group, out_degree, window, samples, seed)
        return pool[out_degree]

    def F(k, i):
        return W(face_pull(group, chi, k, i))

    def S_(k_out, i):
        return W(degeneracy_pull(group, k_out, i))

    def L(k):
        return W(lambda_pull(group, chi, k))

    reports = []

    def check(name, cases):
        for out_degree, lhs, rhs in cases:
            bad = _sides_equal(tuples_for(out_degree), lhs, rhs)
            if bad is not None:
                reports.append(LawReport(name, domain, False, bad))
                return
        reports.append(LawReport(name, domain, True))

    cases = []
    for k in range(degree_max + 1):
        for j in range(1, k + 3):
            for i in range(min(j, k + 2)):
                cases.append(
                    (k + 2,
                     (1, [F(k + 1, j), F(k, i)]),
                     (1, [F(k + 1, i), F(k, j - 1)]))
                )
    check("face_face", cases)

    cases = []
    for k in range(2, degree_max + 1):
        for j in range(k - 1):
            for i in range(j + 1):
                cases.append(
                    (k - 2,
                     (1, [S_(k - 2, j), S_(k - 1, i)]),
                     (1, [S_(k - 2, i), S_(k - 1, j + 1)]))
                )
    check("deg_deg", cases)

    cases = []
    for k in range(degree_max + 1):
        for i in range(k + 2):
            for j in range(k + 1):
                lhs = (1, [S_(k, j), F(k, i)])
                if i < j:
                    rhs = (1, [F(k - 1, i), S_(k - 1, j - 1)])
                elif i in (j, j + 1):
                    rhs = (1, [])
                else:
                    rhs = (1, [F(k - 1, i - 1), S_(k - 1, j)])
                cases.append((k, lhs, rhs))
    check("deg_face", cases)

    cases = []
    for k in range(degree_max + 1):
        cases.append(
            (k + 1,
             (1, [L(k + 1), F(k, 0)]),
             ((-1) ** (k + 1), [F(k, k + 1)]))
        )
        for i in range(1, k + 2):
            cases.append(
                (k + 1,
                 (1, [L(k + 1), F(k, i)]),
                 (-1, [F(k, i - 1), L(k)]))
            )
    check("lambda_face", cases)

    cases = []
    for k in range(1, degree_max + 1):
        cases.append(
            (k - 1,
             (1, [L(k - 1), S_(k - 1, 0)]),
             ((-1) ** (k - 1), [S_(k - 1, k - 1), L(k), L(k)]))
        )
        for i in range(1, k):
            cases.append(
                (k - 1,
                 (1, [L(k - 1), S_(k - 1, i)]),
                 (-1, [S_(k - 1, i - 1), L(k)]))
            )
    check("lambda_deg", cases)

    cases = []
    for k in range(degree_max + 1):
        cases.append((k, (1, [L(k)] * (k + 1)), (1, [])))
    check("lambda_order", cases)

    return reports
