"""The law-check loops as they were before each operand was built once per
check, kept as the reference: they rebuild basis elements, sigma-images,
basis forms, differentials and group products inside the inner loops, and
the calculus d_squared law still adds its 100 seeded random forms.  The
calculus operations go through the module, so a monkeypatched
`calculus.differential` reaches these loops and the rewritten ones alike.
"""

import itertools
import random

from quasicyc import calculus as cal
from quasicyc.cochains import LawReport, braiding_R, coboundary_phi, domain_elements
from quasicyc.quasialgebra import GradedElement, ribbon_apply, twisted_product


def check_ribbon_axiom(F, weight, domain="exhaustive") -> LawReport:
    grp = F.group
    els, label = domain_elements(grp, domain)
    R = braiding_R(F)
    for g in els:
        for h in els:
            lhs = ribbon_apply(grp, weight, twisted_product(
                F, GradedElement.basis(grp, g), GradedElement.basis(grp, h)
            ))
            factor = R.value(h, g) * R.value(g, h)
            rhs = factor * twisted_product(
                F,
                ribbon_apply(grp, weight, GradedElement.basis(grp, g)),
                ribbon_apply(grp, weight, GradedElement.basis(grp, h)),
            )
            if lhs != rhs:
                return LawReport("ribbon_axiom", label, False, (g, h))
    return LawReport("ribbon_axiom", label, True)


def check_algebra_laws(F, law: str, domain="exhaustive") -> LawReport:
    grp = F.group
    els, label = domain_elements(grp, domain)
    e = {g: GradedElement.basis(grp, g) for g in els}.__getitem__
    if law == "braided_commutativity":
        R = braiding_R(F)
        for g in els:
            for h in els:
                lhs = twisted_product(F, e(g), e(h))
                if lhs != R.value(h, g) * twisted_product(F, e(h), e(g)):
                    return LawReport(law, label, False, (g, h))
        return LawReport(law, label, True)
    if law == "quasi_associativity":
        phi = coboundary_phi(F)
        for g in els:
            for h in els:
                gh = twisted_product(F, e(g), e(h))
                for k in els:
                    lhs = twisted_product(F, e(g), twisted_product(F, e(h), e(k)))
                    if lhs != phi.value(g, h, k) * twisted_product(F, gh, e(k)):
                        return LawReport(law, label, False, (g, h, k))
        return LawReport(law, label, True)
    raise ValueError(f"unknown law {law!r}")


def _random_form(spec, rng, els):
    sets = cal._all_index_sets(spec.n)
    terms = []
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(els)
        S = rng.choice(sets)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append(((g, S), c))
    return cal.Form(spec, terms)


def check_calculus(spec, law, F=None, domain="exhaustive", seed=0, degree_max=None):
    Form, differential, form_product = cal.Form, cal.differential, cal.form_product
    integral = cal.integral
    els, label = domain_elements(spec.group, domain)
    sets = cal._all_index_sets(spec.n)
    full = tuple(range(1, spec.n + 1))

    if law == "leibniz":
        for g, S in itertools.product(els, sets):
            x = Form.basis(spec, g, S)
            dx = differential(spec, x)
            sign = -1 if len(S) % 2 else 1
            for h, T in itertools.product(els, sets):
                y = Form.basis(spec, h, T)
                lhs = differential(spec, form_product(spec, x, y, F))
                rhs = form_product(spec, dx, y, F) + sign * form_product(
                    spec, x, differential(spec, y), F
                )
                if lhs != rhs:
                    return LawReport(law, label, False, ((g, S), (h, T)))
        return LawReport(law, label, True)

    if law == "d_squared":
        for g, S in itertools.product(els, sets):
            x = Form.basis(spec, g, S)
            if not differential(spec, differential(spec, x)).is_zero():
                return LawReport(law, label, False, (g, S))
        rng = random.Random(seed)
        for _ in range(100):
            x = _random_form(spec, rng, els)
            if not differential(spec, differential(spec, x)).is_zero():
                return LawReport(law, label, False, tuple(sorted(x.terms)))
        return LawReport(law, label, True)

    if law == "d_products_vanish":
        kmax = degree_max if degree_max is not None else min(spec.n, 3)
        for k in range(kmax + 1):
            for head in itertools.product(els, repeat=k):
                last = spec.group.inv(spec.group.mul_all(head))
                gs = head + (last,)
                acc = differential(spec, Form.basis(spec, gs[0]))
                for g in gs[1:]:
                    acc = form_product(
                        spec, acc, differential(spec, Form.basis(spec, g)), F
                    )
                if not acc.is_zero():
                    return LawReport(law, label, False, gs)
        return LawReport(law, label, True)

    if law == "graded_trace":
        R = braiding_R(F) if F is not None else None
        for i in range(spec.n + 1):
            j = spec.n - i
            for g, S in itertools.product(els, itertools.combinations(full, i)):
                x = Form.basis(spec, g, S)
                for h, T in itertools.product(els, itertools.combinations(full, j)):
                    y = Form.basis(spec, h, T)
                    lhs = integral(spec, form_product(spec, x, y, F))
                    rhs = spec.chi_total(h) * integral(spec, form_product(spec, y, x, F))
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


def check_cochain_laws(x, law: str, domain="exhaustive") -> LawReport:
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


def direct_face_factor(F, chi, k, i, t):
    """One face factor per call, with fresh R_F and phi_F each time."""
    grp = F.group
    if i <= k:
        return F.value(t[i], t[i + 1])
    R = braiding_R(F)
    phi3 = coboundary_phi(F)
    head = t[0]
    body = grp.mul_all(t[1:k + 1])
    last = t[k + 1]
    return (
        R.value(last, grp.mul(head, body))
        * phi3.value(last, head, body)
        * grp.char_eval(chi, last)
        * F.value(last, head)
    )


def direct_lambda_factor(F, chi, k, t):
    grp = F.group
    R = braiding_R(F)
    c = R.value(t[k], grp.mul_all(t[:k])) * grp.char_eval(chi, t[k])
    return -c if k % 2 else c
