"""Unital 2-cochains F on an abelian group, with values in a scalar ring.

A 2-cochain is any F: G x G -> units with F(e,g) = F(g,e) = 1; no cocycle
condition is assumed.  From F we derive the coboundary 3-cocycle

    phi_F(g1,g2,g3) = F(g2,g3) F(g1,g2*g3) F(g1,g2)^-1 F(g1*g2,g3)^-1

which measures the failure of the twisted product to associate, and the
braiding

    R_F(g1,g2) = F(g2,g1) F(g1,g2)^-1.

Law checks (unitality, 2-cocycle, 3-cocycle, bicharacter) run over an
exhaustive domain for finite groups or a centered coordinate window for
groups with a free part; every report names the domain it used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exprdsl import eval_expr, parse_expr
from .groups import GroupSpec, InfiniteGroup
from .scalars import Scalar

UNITALITY_WINDOW_MIN = 1000  # construction-time unitality sample size on infinite G


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


def _reduced_key(group: GroupSpec, gs) -> tuple:
    out = []
    for g in gs:
        rg = group.reduce(g)
        out.append(g if rg == g else rg)
    return tuple(out)


class Cochain2:
    """F: G^2 -> unit scalars; construct via from_expr / from_table."""

    arity = 2

    def __init__(self, group: GroupSpec, fn, description: str, validate: bool = True):
        self.group = group
        self._fn = fn
        self._memo = {}
        self.description = description
        if validate:
            dom = "exhaustive" if group.free_rank == 0 else "construction-window"
            rep = check_cochain_laws(self, "unital", dom)
            if not rep.holds:
                raise ValueError(f"cochain is not unital: {rep}")

    @classmethod
    def from_expr(cls, group: GroupSpec, base, expr_src: str, validate=True) -> "Cochain2":
        """base: ("root_of_unity", N) or ("laurent",); values base^expr."""
        ast = parse_expr(expr_src, 2, group.rank)
        if base[0] == "root_of_unity":
            N = base[1]
            fn = lambda g, h: Scalar.root_of_unity(N, eval_expr(ast, (g, h)))
            desc = f"zeta_{N}^({expr_src})"
        elif base[0] == "laurent":
            fn = lambda g, h: Scalar.q_power(eval_expr(ast, (g, h)))
            desc = f"q^({expr_src})"
        else:
            raise ValueError(f"unknown value base {base!r}")
        return cls(group, fn, desc, validate=validate)

    @classmethod
    def from_table(cls, group: GroupSpec, entries, validate=True) -> "Cochain2":
        """entries: iterable of (g, h, Scalar); must cover all of G^2."""
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
        return cls(group, lambda g, h: table[(g, h)], "table", validate=validate)

    def value(self, g, h) -> Scalar:
        # the memo holds reduced keys only, so a caller's already-reduced
        # tuples hit it directly and reduce runs only on a miss; a new key
        # keeps the caller's tuples where they were already reduced
        try:
            out = self._memo.get((g, h))
        except TypeError:  # unhashable coordinates, e.g. lists
            out = None
        if out is None:
            key = _reduced_key(self.group, (g, h))
            out = self._memo.get(key)
            if out is None:
                out = self._memo[key] = self._fn(*key)
        return out


class Cochain3:
    """phi: G^3 -> unit scalars, same shape as Cochain2 but arity 3."""

    arity = 3

    def __init__(self, group: GroupSpec, fn, description: str):
        self.group = group
        self._fn = fn
        self._memo = {}
        self.description = description

    def value(self, a, b, c) -> Scalar:
        # keyed like Cochain2.value
        try:
            out = self._memo.get((a, b, c))
        except TypeError:
            out = None
        if out is None:
            key = _reduced_key(self.group, (a, b, c))
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
            * F.value(g1, g2).inverse()
            * F.value(grp.mul(g1, g2), g3).inverse()
        )

    return Cochain3(grp, fn, f"coboundary of {F.description}")


def braiding_R(F: Cochain2) -> Cochain2:
    """R_F(g,h) = F(h,g)/F(g,h); cotriangular on an abelian group."""

    def fn(g, h):
        return F.value(h, g) * F.value(g, h).inverse()

    return Cochain2(F.group, fn, f"braiding of {F.description}", validate=False)


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

    domain: "exhaustive" (finite groups) or ("window", b); for groups with
    a free part the construction-time unitality check uses the smallest
    centered window holding UNITALITY_WINDOW_MIN elements.
    """
    grp = x.group
    if domain == "construction-window":
        els = grp.sample_window(UNITALITY_WINDOW_MIN)
        label = f"window(auto, {len(els)} elements)"
    else:
        els, label = domain_elements(grp, domain)
    e = grp.identity()
    one = Scalar.one()

    if law == "unital":
        if x.arity == 2:
            for g in els:
                if x.value(e, g) != one:
                    return LawReport(law, label, False, (e, g), "F(e,g) != 1")
                if x.value(g, e) != one:
                    return LawReport(law, label, False, (g, e), "F(g,e) != 1")
        else:
            for g in els:
                for h in els:
                    if x.value(g, e, h) != one:
                        return LawReport(law, label, False, (g, e, h), "phi(g,e,h) != 1")
        return LawReport(law, label, True)

    if law == "two_cocycle":
        if x.arity != 2:
            raise ValueError("two_cocycle applies to 2-cochains")
        for g in els:
            for h in els:
                for k in els:
                    lhs = x.value(g, h) * x.value(grp.mul(g, h), k)
                    rhs = x.value(h, k) * x.value(g, grp.mul(h, k))
                    if lhs != rhs:
                        return LawReport(
                            law, label, False, (g, h, k), f"lhs={lhs}, rhs={rhs}"
                        )
        return LawReport(law, label, True)

    if law == "three_cocycle":
        if x.arity != 3:
            raise ValueError("three_cocycle applies to 3-cochains")
        for g0 in els:
            for g1 in els:
                for g2 in els:
                    for g3 in els:
                        lhs = (
                            x.value(g1, g2, g3)
                            * x.value(g0, grp.mul(g1, g2), g3)
                            * x.value(g0, g1, g2)
                        )
                        rhs = x.value(g0, g1, grp.mul(g2, g3)) * x.value(
                            grp.mul(g0, g1), g2, g3
                        )
                        if lhs != rhs:
                            return LawReport(
                                law, label, False, (g0, g1, g2, g3),
                                f"lhs={lhs}, rhs={rhs}",
                            )
        return LawReport(law, label, True)

    if law == "bicharacter":
        if x.arity != 2:
            raise ValueError("bicharacter applies to 2-cochains")
        for g0 in els:
            for g1 in els:
                for g2 in els:
                    left = x.value(grp.mul(g0, g1), g2)
                    if left != x.value(g0, g2) * x.value(g1, g2):
                        return LawReport(
                            law, label, False, (g0, g1, g2), "first argument"
                        )
                    right = x.value(g0, grp.mul(g1, g2))
                    if right != x.value(g0, g1) * x.value(g0, g2):
                        return LawReport(
                            law, label, False, (g0, g1, g2), "second argument"
                        )
        return LawReport(law, label, True)

    raise ValueError(f"unknown law {law!r}")
