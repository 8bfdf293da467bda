"""Covariant differential calculi on a group quasialgebra.

Two kinds:

  characters   n commuting generators; relations w_i a = chi_i(a) a w_i
               for chosen characters chi_1..chi_n of the group
  derivations  one generator per free coordinate; w_k central; d reads
               off the coordinate exponents (requires a torsion-free group)

Forms are finitely supported maps (g, S) -> Unit or Scalar with S a subset
of {1..n}; the group part multiplies on the left of the wedge monomial w_S.
The commutation characters chi_i return Units, so a product of two terms
multiplies its sign, chi and F factors as one Unit and applies it once;
the derivations kind has no chi factors to multiply.  The sign and index
union of w_S ^ w_T come from one bounded table keyed by (S, T).
d(a w_S) = (da) w_S, where da is sum_i (chi_i(a)-1) a w_i for the
characters kind and sum_k coord_k(a) a w_k for derivations; form keys are
canonical, so the coordinates are read off g directly.  Twisting by
a 2-cochain F changes only the product, never d.

The integral takes the coefficient of the top wedge monomial at the group
identity; terms below top degree integrate to 0 and raise
LowerDegreeIgnored so silent truncation cannot hide a degree bug.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .cochains import LawReport, braiding_R, domain_elements
from .groups import GroupSpec, SpecMismatch
from .quasialgebra import GradedElement, SparseSum, render_sum
from .scalars import Scalar, Unit


_UNIT_ONE = Unit.one()


class DegreeMismatch(ValueError):
    """Tuple length or form degree does not match the calculus dimension."""


class KindMismatch(ValueError):
    """Operation asked of the wrong calculus kind or preset shape."""


class LowerDegreeIgnored(UserWarning):
    """Integral or top projection dropped terms below top degree."""


@dataclass(frozen=True)
class CalculusSpec:
    group: GroupSpec
    kind: str
    weights: tuple = ()

    def __post_init__(self):
        if self.kind == "characters":
            if not self.weights:
                raise KindMismatch("characters kind needs at least one weight vector")
            object.__setattr__(
                self, "weights", tuple(self.group.check_weight(w) for w in self.weights)
            )
        elif self.kind == "derivations":
            if self.weights:
                raise KindMismatch("derivations kind takes no weight vectors")
            if self.group.free_rank < 1 or self.group.torsion_rank:
                raise KindMismatch("derivations kind needs a torsion-free group")
        else:
            raise KindMismatch(f"unknown calculus kind {self.kind!r}")

    @property
    def n(self) -> int:
        """Dimension: number of generating 1-forms."""
        if self.kind == "characters":
            return len(self.weights)
        return self.group.free_rank

    def chi(self, i: int, g) -> Unit:
        """Commutation character of w_i (1-based); trivial for derivations."""
        if self.kind == "characters":
            return self.group.char_eval(self.weights[i - 1], g)
        return Unit.one()

    def ribbon_weight(self) -> tuple[int, ...]:
        """Weight of chi = prod_i chi_i, the grade character of the calculus."""
        if self.kind == "characters":
            return self.group.combine_weights(self.weights)
        return ()

    def chi_total(self, g) -> Unit:
        return self.group.char_eval(self.ribbon_weight(), g)

    def form_key(self, k) -> tuple:
        """A form term's key (g, S) with g reduced and S checked."""
        g, S = k
        return self.group.reduce(g), _check_indices(self, S)


def render_form(x: "Form") -> str:
    """Canonical text like "-2*u*w1 + u*v*w1^w2"; wedge joins with ^."""
    name = x.spec.group.render_element
    terms = []
    for g, S in sorted(x.terms, key=lambda k: (len(k[1]), k[1], name(k[0]))):
        body = name(g)
        if S:
            wedge = "^".join(f"w{i}" for i in S)
            body = wedge if body == "e" else f"{body}*{wedge}"
        terms.append((body, x.terms[g, S]))
    return render_sum(terms)


class Form(SparseSum):
    """Finitely supported map (g, S) -> Unit or Scalar, S a sorted index
    tuple."""

    __slots__ = ()
    spec = SparseSum.space  # the space under its name for forms
    _key = CalculusSpec.form_key.__name__
    _mismatch = "forms live over different calculi"
    _render = render_form

    @classmethod
    def basis(cls, spec: CalculusSpec, g, S=(), coeff=1) -> "Form":
        return cls(spec, [((g, tuple(S)), coeff)])


def _check_indices(spec: CalculusSpec, S) -> tuple[int, ...]:
    S = tuple(S)
    if list(S) != sorted(set(S)):
        raise SpecMismatch(f"wedge indices must be strictly increasing, got {S}")
    if S and (S[0] < 1 or S[-1] > spec.n):
        raise SpecMismatch(f"wedge index out of range 1..{spec.n}: {S}")
    return S


@lru_cache(maxsize=4096)
def _wedge(S: tuple, T: tuple):
    """(sign, sorted S + T) with w_S ^ w_T = sign w_(S+T), or None when S
    and T meet; the sign is that of the shuffle sorting S + T."""
    if set(S) & set(T):
        return None
    inv = sum(1 for s in S for t in T if s > t)
    return -1 if inv % 2 else 1, tuple(sorted(S + T))


def form_product(spec: CalculusSpec, x: Form, y: Form, F=None) -> Form:
    """Product of forms; pass F to twist the group-part multiplication."""
    if x.spec != spec or y.spec != spec:
        raise SpecMismatch("forms do not belong to this calculus")
    if F is not None and F.group != spec.group:
        raise SpecMismatch("cochain group does not match the calculus group")
    grp = spec.group
    chars = spec.kind == "characters"  # every chi_i is 1 for derivations
    out = []
    for (g, S), cx in x.terms.items():
        for (h, T), cy in y.terms.items():
            wedge = _wedge(S, T)
            if wedge is None:
                continue
            u = _UNIT_ONE if F is None else F.value(g, h)
            if chars:
                for i in S:
                    u = u * spec.chi(i, h)
            c = u * (cx * cy)
            if wedge[0] < 0:
                c = -c
            out.append(((grp.mul(g, h), wedge[1]), c))
    # the keys of x and y are canonical, so their products are
    return Form._keyed(spec, out)


def differential(spec: CalculusSpec, x: Form) -> Form:
    """d(a w_S) = (da) w_S; the same map for twisted and untwisted products."""
    if x.spec != spec:
        raise SpecMismatch("form does not belong to this calculus")
    chars = spec.kind == "characters"
    out = []
    for (g, S), c in x.terms.items():
        for i in range(1, spec.n + 1):
            wedge = _wedge((i,), S)
            if wedge is None:
                continue
            # g is canonical, so a derivation reads its coordinate directly
            ci = spec.chi(i, g) - 1 if chars else g[i - 1]
            if not ci:
                continue
            coeff = c * ci
            if wedge[0] < 0:
                coeff = -coeff
            out.append(((g, wedge[1]), coeff))
    return Form._keyed(spec, out)


def _warn_below_top(x: Form, op: str):
    low = sorted({len(S) for _, S in x.terms if len(S) < x.spec.n})
    if low:
        warnings.warn(
            f"{op} ignored terms of degree {low} below top degree {x.spec.n}",
            LowerDegreeIgnored,
            stacklevel=3,
        )


def top_projection(spec: CalculusSpec, x: Form) -> GradedElement:
    """Coefficient of the top wedge monomial, as a group algebra element."""
    if x.spec != spec:
        raise SpecMismatch("form does not belong to this calculus")
    _warn_below_top(x, "top_projection")
    full = tuple(range(1, spec.n + 1))
    return GradedElement(
        spec.group, [(g, c) for (g, S), c in x.terms.items() if S == full]
    )


def integral(spec: CalculusSpec, x: Form):
    """Graded trace: identity-component of the top projection."""
    if x.spec != spec:
        raise SpecMismatch("form does not belong to this calculus")
    _warn_below_top(x, "integral")
    full = tuple(range(1, spec.n + 1))
    e = spec.group.identity()
    return x.terms.get((e, full), Scalar.zero())


# ---------------------------------------------------------------------------
# cyclic cocycle characters

def character_direct(spec: CalculusSpec, gs, F=None):
    """integral of g0 dg1 .. dgn, products taken left to right."""
    gs = [spec.group.reduce(g) for g in gs]
    if len(gs) != spec.n + 1:
        raise DegreeMismatch(
            f"need {spec.n + 1} group elements for an n={spec.n} calculus, got {len(gs)}"
        )
    acc = Form.basis(spec, gs[0])
    for g in gs[1:]:
        acc = form_product(spec, acc, differential(spec, Form.basis(spec, g)), F)
    return integral(spec, acc)


def character_closed(spec: CalculusSpec, which: str, gs) -> Scalar:
    """Closed-form values of the volume character; which selects the formula.

    "general" works for any characters-kind calculus, "torus" and
    "torus_twisted" for the rank-2 derivations kind; "octonion" is the
    paper's formula for the octonion calculus, an oracle for "general".
    """
    grp = spec.group
    gs = [grp.reduce(g) for g in gs]
    if len(gs) != spec.n + 1:
        raise DegreeMismatch(
            f"need {spec.n + 1} group elements for an n={spec.n} calculus, got {len(gs)}"
        )
    if not grp.is_identity(grp.mul_all(gs)):
        return Scalar.zero()

    if which == "general":
        if spec.kind != "characters":
            raise KindMismatch("general closed form needs the characters kind")
        n = spec.n
        tails = [None] * (n + 2)
        tails[n + 1] = grp.identity()
        for t in range(n, 0, -1):
            tails[t] = grp.mul(gs[t], tails[t + 1])
        total = Scalar.zero()
        for perm in itertools.permutations(range(1, n + 1)):
            inv = sum(
                1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
            )
            term = Scalar.rational(-1 if inv % 2 else 1)
            for t in range(1, n + 1):
                w = spec.weights[perm[t - 1] - 1]
                factor = grp.char_eval(w, tails[t]) - grp.char_eval(w, tails[t + 1])
                if factor.is_zero():
                    term = Scalar.zero()
                    break
                term = term * factor
            total = total + term
        return total

    if which == "octonion":
        if spec.kind != "characters" or grp != GroupSpec((2, 2, 2)) or spec.weights != (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ):
            raise KindMismatch("octonion closed form needs the octonion calculus")
        j, k, l = gs[1], gs[2], gs[3]
        s = lambda *bits: -1 if sum(bits) % 2 else 1
        val = (
            s(l[1], l[2]) * l[0] * (s(k[1]) * j[1] * k[2] - s(k[2]) * j[2] * k[1])
            + s(l[0], l[2]) * l[1] * (s(k[2]) * j[2] * k[0] - s(k[0]) * j[0] * k[2])
            + s(l[0], l[1]) * l[2] * (s(k[0]) * j[0] * k[1] - s(k[1]) * j[1] * k[0])
        )
        return Scalar.rational(-8 * val)

    if which in ("torus", "torus_twisted"):
        if spec.kind != "derivations" or grp.free_rank != 2:
            raise KindMismatch("torus closed forms need the rank-2 derivations kind")
        i, j, k = gs
        area = j[0] * k[1] - j[1] * k[0]
        if which == "torus":
            return Scalar.rational(area)
        return Scalar.q_power(i[1] * j[0] + (i[1] + j[1]) * k[0], area)

    raise ValueError(f"unknown closed form {which!r}")


# ---------------------------------------------------------------------------
# law checking

def _all_index_sets(n: int):
    out = []
    for r in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), r))
    return out


def check_calculus(
    spec: CalculusSpec,
    law: str,
    F=None,
    domain="exhaustive",
    degree_max: int | None = None,
) -> LawReport:
    """Check one named calculus law over a domain; F twists the product.

    Laws: leibniz, d_squared, d_products_vanish, graded_trace, closedness.
    Basis forms decide each law on the domain (d is linear, the product
    bilinear); each basis form and its differential is built once per check.
    """
    els, label = domain_elements(spec.group, domain)
    sets = _all_index_sets(spec.n)
    full = tuple(range(1, spec.n + 1))

    if law == "leibniz":
        x = {k: Form.basis(spec, *k) for k in itertools.product(els, sets)}
        dx = {k: differential(spec, a) for k, a in x.items()}
        for k, a in x.items():
            da = dx[k]
            sign = -1 if len(k[1]) % 2 else 1
            for m, b in x.items():
                lhs = differential(spec, form_product(spec, a, b, F))
                rhs = form_product(spec, da, b, F) + sign * form_product(
                    spec, a, dx[m], F
                )
                if lhs != rhs:
                    return LawReport(law, label, False, (k, m))
        return LawReport(law, label, True)

    if law == "d_squared":
        for g, S in itertools.product(els, sets):
            x = Form.basis(spec, g, S)
            if not differential(spec, differential(spec, x)).is_zero():
                return LawReport(law, label, False, (g, S))
        return LawReport(law, label, True)

    if law == "d_products_vanish":
        kmax = degree_max if degree_max is not None else min(spec.n, 3)
        grp, d0 = spec.group, {}  # d0: g -> d(basis g), one memo per check
        for k in range(kmax + 1):
            for head in itertools.product(els, repeat=k):
                gs = head + (grp.inv(grp.mul_all(head)),)
                for g in gs:
                    if g not in d0:
                        d0[g] = differential(spec, Form.basis(spec, g))
                acc = d0[gs[0]]
                for g in gs[1:]:
                    acc = form_product(spec, acc, d0[g], F)
                if not acc.is_zero():
                    return LawReport(law, label, False, gs)
        return LawReport(law, label, True)

    if law == "graded_trace":
        R = braiding_R(F) if F is not None else None
        chi = {h: spec.chi_total(h) for h in els}
        # the basis forms of each degree, built once per check
        forms = [
            [((g, S), Form.basis(spec, g, S))
             for g, S in itertools.product(els, itertools.combinations(full, i))]
            for i in range(spec.n + 1)
        ]
        for i in range(spec.n + 1):
            j = spec.n - i
            for (g, S), x in forms[i]:
                for (h, T), y in forms[j]:
                    lhs = integral(spec, form_product(spec, x, y, F))
                    rhs = chi[h] * integral(spec, form_product(spec, y, x, F))
                    if R is not None:
                        rhs = R.value(h, g) * rhs
                    if (i * j) % 2:
                        rhs = -rhs
                    if lhs != rhs:
                        return LawReport(law, label, False, ((g, S), (h, T)))
        return LawReport(law, label, True)

    if law == "closedness":
        for g in els:
            for S in itertools.combinations(full, spec.n - 1):
                val = integral(spec, differential(spec, Form.basis(spec, g, S)))
                if not val.is_zero():
                    return LawReport(law, label, False, (g, S))
        return LawReport(law, label, True)

    raise ValueError(f"unknown law {law!r}")
