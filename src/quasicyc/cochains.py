"""Unital 2-cochains F on an abelian group, with values in a scalar ring.

A 2-cochain is any F: G x G -> units with F(e,g) = F(g,e) = 1; no cocycle
condition is assumed.  From F we derive the coboundary 3-cocycle

    phi_F(g1,g2,g3) = F(g2,g3) F(g1,g2*g3) F(g1,g2)^-1 F(g1*g2,g3)^-1

which measures the failure of the twisted product to associate, and the
braiding

    R_F(g1,g2) = F(g2,g1) F(g1,g2)^-1.

Values are `scalars.Unit`s, c*zeta^a*q^b, wherever they are monomials:
every from_expr value, and the monomial entries of from_table, whose other
units (1 + zeta_5, say) stay Scalars.  phi_F and R_F multiply and invert
whichever they get, so on Units they are additions of exponents.

Construction decides unitality exactly on all of G.  from_table checks
its finite group exhaustively.  from_expr's F is base^e, e an integer
polynomial, unital iff e(e_G, h) = e(h, e_G) = 0 for every h (mod N for
zeta_N).  Torsion coordinates of h run over their residues, and each free
coordinate x_c over {0..d_c}, d_c the number of variable leaves naming it,
which bounds the degree in x_c.  The coefficients of e in the binomial
basis prod_c C(x_c, a_c) are integer combinations of its values on that
grid, so vanishing there, mod N too, is vanishing on all of Z^s.

Law checks (unitality, 2-cocycle, 3-cocycle, bicharacter) run over an
exhaustive domain for finite groups or a centered coordinate window for
groups with a free part; every report names the domain it used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exprdsl import eval_expr, leaf_counts, parse_expr
from .groups import GroupSpec, InfiniteGroup
from .scalars import Unit


@dataclass(frozen=True)
class LawReport:
    law: str
    domain: str
    holds: bool
    counterexample: tuple | None = None
    detail: str | None = None

    def __str__(self):
        if self.holds:
            return f"{self.law} holds on {self.domain}"
        return (
            f"{self.law} fails on {self.domain} at {self.counterexample}"
            + (f": {self.detail}" if self.detail else "")
        )


class Cochain2:
    """F: G^2 -> units, each a Unit or (for a table entry that is no
    monomial) a Scalar.  from_expr and from_table check unitality; the
    constructor is the unchecked one, for cochains unital by design."""

    arity = 2

    def __init__(self, group: GroupSpec, fn, description: str):
        self.group = group
        self._fn = fn
        self._memo = {}
        self.description = description

    @classmethod
    def from_expr(cls, group: GroupSpec, base, expr_src: str) -> "Cochain2":
        """base: ("root_of_unity", N) or ("laurent",); values base^expr."""
        ast = parse_expr(expr_src, 2, group.rank)
        if base[0] == "root_of_unity":
            N = base[1]
            if N < 1:
                raise ValueError("N must be >= 1")
            fn = lambda g, h: Unit.root_of_unity(N, eval_expr(ast, (g, h)))
            desc = f"zeta_{N}^({expr_src})"
        elif base[0] == "laurent":
            N = 0
            fn = lambda g, h: Unit.q_power(eval_expr(ast, (g, h)))
            desc = f"q^({expr_src})"
        else:
            raise ValueError(f"unknown value base {base!r}")
        bad = _exponent_unit_failure(group, ast, N)
        if bad is not None:
            raise ValueError(f"cochain is not unital on all of G: F{bad} != 1")
        return cls(group, fn, desc)

    @classmethod
    def from_table(cls, group: GroupSpec, entries) -> "Cochain2":
        """entries: iterable of (g, h, Scalar); must cover all of G^2.
        Monomial entries are stored as Units."""
        if group.free_rank:
            raise InfiniteGroup("table cochains need a finite group")
        table = {}
        for g, h, s in entries:
            table[(group.reduce(g), group.reduce(h))] = s
        els = group.elements()
        missing = [(g, h) for g in els for h in els if (g, h) not in table]
        if missing:
            raise ValueError(f"table misses {len(missing)} pairs, first {missing[0]}")
        if any(s.is_zero() for s in table.values()):
            raise ValueError("table cochain values must be units")
        table = {k: Unit.of(s) or s for k, s in table.items()}
        F = cls(group, lambda g, h: table[(g, h)], "table")
        rep = check_cochain_laws(F, "unital")
        if not rep.holds:
            raise ValueError(f"cochain is not unital: {rep}")
        return F

    def value(self, g, h):
        # the memo holds reduced keys only, so a caller's already-reduced
        # tuples hit it directly and reduce runs only on a miss; a new key
        # keeps the caller's tuples, shared across memos (dims RSS -8%)
        gh = (g, h)
        try:
            out = self._memo.get(gh)
        except TypeError:  # unhashable coordinates, e.g. lists
            out = None
        if out is None:
            key = (self.group.reduce(g), self.group.reduce(h))
            key = gh if key == gh else key
            out = self._memo.get(key)
            if out is None:
                out = self._memo[key] = self._fn(*key)
        return out


class Cochain3:
    """phi: G^3 -> units, same shape as Cochain2 but arity 3."""

    arity = 3

    def __init__(self, group: GroupSpec, fn, description: str):
        self.group = group
        self._fn = fn
        self._memo = {}
        self.description = description

    def value(self, a, b, c):
        # keyed like Cochain2.value
        abc = (a, b, c)
        try:
            out = self._memo.get(abc)
        except TypeError:
            out = None
        if out is None:
            reduce = self.group.reduce
            key = (reduce(a), reduce(b), reduce(c))
            key = abc if key == abc else key
            out = self._memo.get(key)
            if out is None:
                out = self._memo[key] = self._fn(*key)
        return out


def coboundary_phi(F: Cochain2) -> Cochain3:
    """The associator 3-cocycle of the twist F, evaluated on demand."""
    grp = F.group

    def fn(g1, g2, g3):
        return (
            F.value(g2, g3)
            * F.value(g1, grp.mul(g2, g3))
            * (F.value(g1, g2) * F.value(grp.mul(g1, g2), g3)).inverse()
        )

    return Cochain3(grp, fn, f"coboundary of {F.description}")


def braiding_R(F: Cochain2) -> Cochain2:
    """R_F(g,h) = F(h,g)/F(g,h); cotriangular on an abelian group."""

    def fn(g, h):
        return F.value(h, g) * F.value(g, h).inverse()

    return Cochain2(F.group, fn, f"braiding of {F.description}")


def _exponent_unit_failure(group: GroupSpec, ast, N: int):
    """First (e, h) or (h, e) where the exponent polynomial is nonzero (mod N
    when N, exactly when N == 0) on the grid of the module docstring, or
    None: then F(e, h) = F(h, e) = 1 for every h in G."""
    counts = leaf_counts(ast)
    e = group.identity()
    for free in (1, 0):
        ranges = [range(m) for m in group.cyclic_orders] + [
            range(counts[(free, c)] + 1)
            for c in range(group.torsion_rank + 1, group.rank + 1)
        ]
        for h in itertools.product(*ranges):
            args = (e, h) if free else (h, e)
            v = eval_expr(ast, args)
            if v % N if N else v:
                return args
    return None


# ---------------------------------------------------------------------------
# law checking

def domain_elements(group: GroupSpec, domain):
    """(elements, label) of a check domain: "exhaustive" (finite groups) or
    ("window", b), the torsion part in full and free coordinates in [-b, b]."""
    if domain == "exhaustive":
        return group.elements(), "exhaustive"
    if isinstance(domain, tuple) and len(domain) == 2 and domain[0] == "window":
        b = domain[1]
        return group.window_elements(b), f"window({b})"
    raise ValueError(f"unknown domain {domain!r}")


def check_cochain_laws(x, law: str, domain="exhaustive") -> LawReport:
    """Check one named law for a Cochain2 or Cochain3 over a domain.

    domain: "exhaustive" (finite groups) or ("window", b).
    """
    grp = x.group
    els, label = domain_elements(grp, domain)
    e = grp.identity()
    if law == "unital":
        if x.arity == 2:
            for g in els:
                if x.value(e, g) != 1:
                    return LawReport(law, label, False, (e, g), "F(e,g) != 1")
                if x.value(g, e) != 1:
                    return LawReport(law, label, False, (g, e), "F(g,e) != 1")
        else:
            for g in els:
                for h in els:
                    if x.value(g, e, h) != 1:
                        return LawReport(law, label, False, (g, e, h), "phi(g,e,h) != 1")
        return LawReport(law, label, True)

    if law not in _LAW_ARITY:
        raise ValueError(f"unknown law {law!r}")
    if x.arity != _LAW_ARITY[law]:
        raise ValueError(f"{law} applies to {_LAW_ARITY[law]}-cochains")
    # products come from one table over the domain, and what is constant in
    # the innermost loop is read once
    mul = {(a, b): grp.mul(a, b) for a in els for b in els}
    if law == "two_cocycle":
        for g in els:
            for h in els:
                gh, x_gh = mul[g, h], x.value(g, h)
                for k in els:
                    lhs = x_gh * x.value(gh, k)
                    rhs = x.value(h, k) * x.value(g, mul[h, k])
                    if lhs != rhs:
                        return LawReport(
                            law, label, False, (g, h, k), f"lhs={lhs}, rhs={rhs}"
                        )
        return LawReport(law, label, True)

    if law == "three_cocycle":
        for g0 in els:
            for g1 in els:
                g01 = mul[g0, g1]
                for g2 in els:
                    g12, x012 = mul[g1, g2], x.value(g0, g1, g2)
                    for g3 in els:
                        lhs = x.value(g1, g2, g3) * x.value(g0, g12, g3) * x012
                        rhs = x.value(g0, g1, mul[g2, g3]) * x.value(g01, g2, g3)
                        if lhs != rhs:
                            return LawReport(
                                law, label, False, (g0, g1, g2, g3),
                                f"lhs={lhs}, rhs={rhs}",
                            )
        return LawReport(law, label, True)

    for g0 in els:  # bicharacter
        for g1 in els:
            g01, x01 = mul[g0, g1], x.value(g0, g1)
            for g2 in els:
                x02 = x.value(g0, g2)
                if x.value(g01, g2) != x02 * x.value(g1, g2):
                    return LawReport(law, label, False, (g0, g1, g2), "first argument")
                if x.value(g0, mul[g1, g2]) != x01 * x02:
                    return LawReport(law, label, False, (g0, g1, g2), "second argument")
    return LawReport(law, label, True)


_LAW_ARITY = {"two_cocycle": 2, "three_cocycle": 3, "bicharacter": 2}
