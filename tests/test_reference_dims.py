"""The dims workload's oracle in the unit tests: cohomology_dims reproduces
every entry of perfbench/reference_dims.json, untwisted and twisted by a
bicharacter and by a cubic twist that is not a 2-cocycle.  Twist invariance
is the paper's theorem: the twisted rows equal the untwisted ones.  The file
is only read here.

The reference was written by cohomology_dims itself, so both are also
checked against `closed_form_rows`, which forms no matrix.  The complex:
C^k is the functions on the support tuples t = (g_0..g_k), g_0...g_k = e,
|G|^k of them, and for a character chi of G (weight w, so
chi(g) = zeta_N^(sum_t w_t g_t N/m_t), N the exponent of G)

    (lambda phi)(g_0..g_k) = (-1)^k chi(g_k) phi(g_k, g_0, .., g_(k-1)).

dim.  Writing phi(g_0..g_k) = f(g_1..g_k) identifies C^k with the
inhomogeneous cochains C^k(G; k_chi), k_chi the line on which g acts by
chi(g), and b with the group coboundary: tuples with product e are the
identity component of the Hochschild complex of k[G] (Burghelea, "The
cyclic homology of the group rings", Comment. Math. Helv. 60, 1985; Loday,
Cyclic Homology, 7.4).  Over Q(zeta_N), characteristic 0, averaging over
the finite G kills H^n(G; M) for n > 0, and H^0(G; k_chi) is the chi-fixed
line: k when chi = 1, else 0.  So HH^n has dim 1 when n = 0 and chi = 1,
and 0 otherwise.  Connes' exact sequence
... -> HC^(n-1) -> HC^(n+1) -> HH^(n+1) -> HC^n -> ... with HC^0 = HH^0
then gives HC^n = HC^(n-2) for n >= 2 and HC^1 = 0: dim 1 when n is even
and chi = 1, and 0 otherwise.

dim_C.  For hh it is |G|^k.  For hc it is dim ker(lambda - id).  lambda
sends the basis function of t to a multiple of that of rot^(-1)(t), with
rot(g_0..g_k) = (g_k, g_0, .., g_(k-1)), so it preserves the span of each
rot-orbit.  An invariant phi satisfies phi(t) = c(t) phi(rot t) with
c(t) = (-1)^k chi(g_k), so round an orbit of length L,
phi(t) = c(t) c(rot t) ... c(rot^(L-1) t) phi(t): the orbit carries a
one-dimensional invariant space when that holonomy is 1, else none.  The
sign and the root of unity are combined before the comparison, as
exponents of zeta_(2N): with N even, zeta_N^(N/2) = -1 cancels a sign -1.

ranks.  dim H^k = (dim_C(k) - rank_b_out(k)) - rank_b_in(k) and
rank_b_in(k) = rank_b_out(k - 1), so
rank_b_out(k) = dim_C(k) - dim(k) - rank_b_out(k - 1), from
rank_b_out(-1) = 0.
"""

import itertools
import json
import math
import os

import pytest

from quasicyc.cochains import Cochain2
from quasicyc.cyclic import cohomology_dims
from quasicyc.groups import GroupSpec

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference_dims.json")

with open(REFERENCE) as fh:
    TABLE = json.load(fh)

TWISTS = ("i1*j1", "i1*i1*j1")


def test_reference_is_populated():
    assert len(TABLE) == 68
    assert {key.rsplit("|", 1)[1] for key in TABLE} == {"hh", "hc"}


@pytest.mark.parametrize("key", sorted(TABLE))
def test_cohomology_dims_match_reference(key):
    orders, chi, which = key.split("|")
    orders = tuple(int(m) for m in orders.split(","))
    chi = tuple(int(w) for w in chi.split(","))
    rows = TABLE[key]
    grp = GroupSpec(orders)
    degree = len(rows) - 1
    assert cohomology_dims(grp, chi, degree, which) == rows
    N = math.lcm(*orders)
    for expr in TWISTS:
        F = Cochain2.from_expr(grp, ("root_of_unity", N), expr)
        assert cohomology_dims(grp, chi, degree, which, twist=F) == rows, expr


def _invariant_orbits(orders, chi, k):
    """The lambda-orbits of support tuples of degree k with holonomy 1."""
    N = math.lcm(*orders)
    elements = list(itertools.product(*(range(m) for m in orders)))

    def chi_exponent(g):  # chi(g) = zeta_N^chi_exponent(g)
        return sum(w * x * (N // m) for w, x, m in zip(chi, g, orders))

    seen, count = set(), 0
    for tail in itertools.product(elements, repeat=k):
        g0 = tuple(-sum(g[i] for g in tail) % m for i, m in enumerate(orders))
        t = (g0, *tail)
        if t in seen:
            continue
        holonomy = 0  # exponent of zeta_(2N): (-1)^k is zeta_(2N)^(kN)
        while t not in seen:
            seen.add(t)
            holonomy += k * N + 2 * chi_exponent(t[-1])
            t = (t[-1], *t[:-1])
        count += holonomy % (2 * N) == 0
    return count


def closed_form_rows(orders, chi, degree_max, which):
    """cohomology_dims rows from the closed form of the module docstring."""
    trivial = all(w % m == 0 for w, m in zip(chi, orders))
    order = math.prod(orders)
    rows, rank_in = [], 0
    for k in range(degree_max + 1):
        if which == "hh":
            dim_c, dim = order ** k, int(trivial and k == 0)
        else:
            dim_c, dim = _invariant_orbits(orders, chi, k), int(trivial and k % 2 == 0)
        rank_out = dim_c - dim - rank_in
        rows.append({
            "degree": k, "dim": dim, "dim_C": dim_c,
            "rank_b_in": rank_in, "rank_b_out": rank_out,
        })
        rank_in = rank_out
    return rows


@pytest.mark.parametrize("key", sorted(TABLE))
def test_closed_form_matches_reference_and_cohomology_dims(key):
    # the reference's degrees, and cohomology_dims one degree further
    orders, chi, which = key.split("|")
    orders = tuple(int(m) for m in orders.split(","))
    chi = tuple(int(w) for w in chi.split(","))
    degree = len(TABLE[key])
    expected = closed_form_rows(orders, chi, degree, which)
    assert TABLE[key] == expected[:-1]
    grp = GroupSpec(orders)
    F = Cochain2.from_expr(grp, ("root_of_unity", grp.exponent), "i1*j1*j1 + i1*j1")
    for twist in (None, F):
        assert cohomology_dims(grp, chi, degree, which, twist=twist) == expected
