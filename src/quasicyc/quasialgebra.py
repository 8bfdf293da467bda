"""The twisted group quasialgebra: G-graded elements under g._F h = F(g,h)(g+h).

Elements are finitely supported maps from the group to Units or Scalars,
extended bilinearly; SparseSum is their body, shared with the calculus'
forms.  A coefficient stays a Unit until two terms meet on one key.
Associativity fails in general; the defect is the coboundary 3-cocycle of
F, and the braiding R_F makes the product braided-commutative.
The Cayley-Dickson doubling here is an independent oracle for the octonion
preset: the two constructions are compared by structural properties
(squares, anticommutation, alternativity, norm), never by a basis bijection.
"""

from __future__ import annotations

from fractions import Fraction

from .cochains import Cochain2, LawReport, braiding_R, coboundary_phi, domain_elements
from .groups import GroupSpec, SpecMismatch
from .scalars import Scalar, Unit, join_terms


class SparseSum:
    """Finitely supported map key -> Unit or Scalar over one space; no zero
    terms stored.  A subclass names the space's method that canonicalizes one
    key (`_key`), the text of the whole sum (`_render`) and the error for
    sums over two spaces (`_mismatch`)."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=()):
        key = getattr(space, self._key)
        items = terms.items() if hasattr(terms, "items") else terms
        self.space = space
        self.terms = _accumulate([(key(k), c) for k, c in items])

    @classmethod
    def _keyed(cls, space, items) -> "SparseSum":
        """The sum of (key, coefficient) pairs whose keys are canonical."""
        out = cls.__new__(cls)
        out.space = space
        out.terms = _accumulate(items)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return self._keyed(self.space, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return self._keyed(self.space, [(k, scalar * c) for k, c in self.terms.items()])

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def _check(self, other):
        if self.space != other.space:
            raise SpecMismatch(self._mismatch)

    def __str__(self):
        return self._render()

    def __repr__(self):
        return f"{type(self).__name__}({self._render()!r})"


def _accumulate(items) -> dict:
    """{key: coefficient} of (key, coefficient) pairs, like keys added and
    zeros dropped; a nonzero int or Fraction becomes a Unit."""
    acc: dict = {}
    for k, c in items:
        if not isinstance(c, (Unit, Scalar)):
            c = Unit(c) if c else Scalar.zero()
        prev = acc.get(k)
        c = prev + c if prev is not None else c
        if c.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = c
    return acc


def render_sum(terms) -> str:
    """Text of (body, coefficient) pairs in order: "3/2*u*v - q^2*w"."""
    out = []
    for body, c in terms:
        cs = c.render()
        if " " in cs:
            cs = f"({cs})"
        if cs == "1":
            out.append(body)
        elif cs == "-1":
            out.append(f"-{body}")
        else:
            out.append(f"{cs}*{body}")
    return join_terms(out)


def render_graded(a: "GradedElement") -> str:
    """Canonical text like "3/2*u*v - q^2*w"; identity element prints as e."""
    return render_sum(
        (body, a.terms[g]) for body, g in sorted((a.group.render_element(g), g) for g in a.terms)
    )


class GradedElement(SparseSum):
    """Finitely supported map GroupElement -> Unit or Scalar over a group."""

    __slots__ = ()
    group = SparseSum.space  # the space under its name for elements
    _key = GroupSpec.reduce.__name__
    _mismatch = "elements live over different group specs"
    _render = render_graded

    @classmethod
    def basis(cls, group: GroupSpec, g, coeff=1) -> "GradedElement":
        return cls(group, [(g, coeff)])


def twisted_product(F, a: GradedElement, b: GradedElement) -> GradedElement:
    """Bilinear extension of g._F h = F(g,h)(g+h); F=None gives plain CG."""
    a._check(b)
    if F is not None and F.group != a.group:
        raise SpecMismatch("cochain and elements live over different group specs")
    grp = a.group
    out = []
    for g, cg in a.terms.items():
        for h, ch in b.terms.items():
            c = cg * ch
            if F is not None:
                c = F.value(g, h) * c
            out.append((grp.mul(g, h), c))
    # GroupSpec.mul returns reduced elements, so the keys are canonical
    return GradedElement._keyed(grp, out)


def associator_defect(F: Cochain2, g, h, k):
    """The unit s with g.(h.k) = s*((g.h).k); the coboundary 3-cocycle at (g,h,k)."""
    return coboundary_phi(F).value(g, h, k)


def ribbon_apply(group: GroupSpec, weight, a: GradedElement) -> GradedElement:
    """sigma(g) = chi(g) g extended linearly; weight is chi's weight vector."""
    return GradedElement._keyed(
        group, [(g, group.char_eval(weight, g) * c) for g, c in a.terms.items()]
    )


def check_ribbon_axiom(F: Cochain2, weight, domain="exhaustive") -> LawReport:
    """sigma(g.h) = R_F(h,g) R_F(g,h) sigma(g).sigma(h) over the domain."""
    grp = F.group
    els, label = domain_elements(grp, domain)
    R = braiding_R(F)
    # each basis element and its sigma-image built once per check
    e = {g: GradedElement.basis(grp, g) for g in els}
    s = {g: ribbon_apply(grp, weight, x) for g, x in e.items()}
    for g in els:
        eg, sg = e[g], s[g]
        for h in els:
            lhs = ribbon_apply(grp, weight, twisted_product(F, eg, e[h]))
            rhs = R.value(h, g) * R.value(g, h) * twisted_product(F, sg, s[h])
            if lhs != rhs:
                return LawReport("ribbon_axiom", label, False, (g, h))
    return LawReport("ribbon_axiom", label, True)


def check_algebra_laws(F: Cochain2, law: str, domain="exhaustive") -> LawReport:
    """Check one law of the twisted product on basis elements over a domain.

    braided_commutativity: g.h = R_F(h,g) h.g;
    quasi_associativity: g.(h.k) = phi(g,h,k) (g.h).k, phi the coboundary of F.
    """
    grp = F.group
    els, label = domain_elements(grp, domain)
    if law not in ("braided_commutativity", "quasi_associativity"):
        raise ValueError(f"unknown law {law!r}")
    e = {g: GradedElement.basis(grp, g) for g in els}
    # every product of two basis elements, built once per check
    prod = {(g, h): twisted_product(F, e[g], e[h]) for g in els for h in els}
    if law == "braided_commutativity":
        R = braiding_R(F)
        for g in els:
            for h in els:
                if prod[g, h] != R.value(h, g) * prod[h, g]:
                    return LawReport(law, label, False, (g, h))
        return LawReport(law, label, True)
    phi = coboundary_phi(F)
    for g in els:
        eg = e[g]
        for h in els:
            gh = prod[g, h]
            for k in els:
                lhs = twisted_product(F, eg, prod[h, k])
                if lhs != phi.value(g, h, k) * twisted_product(F, gh, e[k]):
                    return LawReport(law, label, False, (g, h, k))
    return LawReport(law, label, True)


def norm_square(a: GradedElement) -> Fraction:
    """Sum of squared coefficients; defined for rational coefficients only."""
    total = Scalar.zero()
    for c in a.terms.values():
        if not c.is_rational():
            raise ValueError("norm_square needs rational coefficients")
        total = total + c * c
    return Fraction(total.payload)


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling oracle

def cayley_dickson_conj(x: list) -> list:
    if len(x) == 1:
        return list(x)
    h = len(x) // 2
    return cayley_dickson_conj(x[:h]) + [-c for c in x[h:]]


def cayley_dickson_product(x: list, y: list) -> list:
    """(a,b)(c,d) = (ac - d*b, da + bc*) with * the doubling conjugation."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    if len(x) == 1:
        return [x[0] * y[0]]
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    left_a = cayley_dickson_product(a, c)
    left_b = cayley_dickson_product(cayley_dickson_conj(d), b)
    right_a = cayley_dickson_product(d, a)
    right_b = cayley_dickson_product(b, cayley_dickson_conj(c))
    return [p - q for p, q in zip(left_a, left_b)] + [
        p + q for p, q in zip(right_a, right_b)
    ]


def cayley_dickson_oracle(dim: int) -> list[list[tuple[int, int]]]:
    """Sign table of the doubling algebra: entry [a][b] = (sign, c) for
    e_a * e_b = sign * e_c."""
    if dim not in (1, 2, 4, 8):
        raise ValueError("dim must be one of 1, 2, 4, 8")
    table = []
    for a in range(dim):
        row = []
        ea = [Fraction(int(i == a)) for i in range(dim)]
        for b in range(dim):
            eb = [Fraction(int(i == b)) for i in range(dim)]
            prod = cayley_dickson_product(ea, eb)
            nz = [(i, c) for i, c in enumerate(prod) if c != 0]
            assert len(nz) == 1 and abs(nz[0][1]) == 1, "basis products must be signed basis elements"
            row.append((1 if nz[0][1] > 0 else -1, nz[0][0]))
        table.append(row)
    return table
