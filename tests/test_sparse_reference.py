"""The shared sparse-sum body of GradedElement and Form against the two
separate classes it replaced, kept here as the reference.

RefGradedElement, RefForm, ref_render_graded, ref_render_form and
ref_render_terms are the earlier implementations, unchanged except that
coefficients render through ref_scalar_render (the earlier Scalar.render)
so that no reference text goes through the new term joiner.
"""

import itertools
import random
from fractions import Fraction

import pytest

from quasicyc.calculus import CalculusSpec, Form, _check_indices
from quasicyc.groups import GroupSpec, SpecMismatch
from quasicyc.quasialgebra import GradedElement
from quasicyc.scalars import CYCLOTOMIC, RATIONAL, Scalar


def ref_render_terms(terms) -> str:
    # terms: list of (coeff, symbol, exponent), already ordered
    if not terms:
        return "0"
    parts = []
    for i, (c, sym, e) in enumerate(terms):
        neg = c < 0
        mag = -c if neg else c
        if e == 0:
            body = str(mag)
        else:
            pw = sym if e == 1 else f"{sym}^{e}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if i == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def ref_scalar_render(c: Scalar) -> str:
    if c.tag == RATIONAL:
        return str(c.payload)
    if c.tag == CYCLOTOMIC:
        return ref_render_terms([(x, "z", e) for e, x in enumerate(c.payload) if x != 0])
    return ref_render_terms([(x, "q", e) for e, x in c.payload])


class RefGradedElement:
    __slots__ = ("group", "terms")

    def __init__(self, group, terms=()):
        self.group = group
        acc: dict = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for g, c in items:
            if not isinstance(c, Scalar):
                c = Scalar.rational(c)
            g = group.reduce(g)
            prev = acc.get(g)
            c = prev + c if prev is not None else c
            if c.is_zero():
                acc.pop(g, None)
            else:
                acc[g] = c
        self.terms = acc

    def __add__(self, other):
        self._check(other)
        return RefGradedElement(self.group, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        if not isinstance(scalar, Scalar):
            scalar = Scalar.rational(scalar)
        return RefGradedElement(self.group, [(g, scalar * c) for g, c in self.terms.items()])

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (
            isinstance(other, RefGradedElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group, frozenset(self.terms.items())))

    def _check(self, other):
        if self.group != other.group:
            raise SpecMismatch("elements live over different group specs")

    def __str__(self):
        return ref_render_graded(self)

    def __repr__(self):
        return f"GradedElement({ref_render_graded(self)!r})"


def ref_render_graded(a) -> str:
    if not a.terms:
        return "0"
    parts = []
    for body, g in sorted((a.group.render_element(g), g) for g in a.terms):
        c = a.terms[g]
        cs = ref_scalar_render(c)
        if " " in cs:
            cs = f"({cs})"
        if cs == "1":
            term = body
        elif cs == "-1":
            term = f"-{body}"
        else:
            term = f"{cs}*{body}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts)


class RefForm:
    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=()):
        self.spec = spec
        acc: dict = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for (g, S), c in items:
            if not isinstance(c, Scalar):
                c = Scalar.rational(c)
            key = (spec.group.reduce(g), _check_indices(spec, S))
            prev = acc.get(key)
            c = prev + c if prev is not None else c
            if c.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = c
        self.terms = acc

    def __add__(self, other):
        self._check(other)
        return RefForm(self.spec, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        if not isinstance(scalar, Scalar):
            scalar = Scalar.rational(scalar)
        return RefForm(self.spec, [(k, scalar * c) for k, c in self.terms.items()])

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (
            isinstance(other, RefForm)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def _check(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("forms live over different calculi")

    def __str__(self):
        return ref_render_form(self)

    def __repr__(self):
        return f"Form({ref_render_form(self)!r})"


def ref_render_form(x) -> str:
    if not x.terms:
        return "0"
    parts = []
    order = lambda key: (len(key[1]), key[1], x.spec.group.render_element(key[0]))
    for g, S in sorted(x.terms, key=order):
        c = x.terms[(g, S)]
        bits = []
        body = x.spec.group.render_element(g)
        if body != "e" or not S:
            bits.append(body)
        if S:
            bits.append("^".join(f"w{i}" for i in S))
        term = "*".join(bits)
        cs = ref_scalar_render(c)
        if " " in cs:
            cs = f"({cs})"
        if cs == "-1":
            term = f"-{term}"
        elif cs != "1":
            term = f"{cs}*{term}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts)


# -- random sums -----------------------------------------------------------------

RINGS = ("Q", 3, 4, 8, "laurent")

GROUPS = (
    GroupSpec((2, 2, 2)),
    GroupSpec((3,)),
    GroupSpec((4, 2)),
    GroupSpec((8,)),
    GroupSpec((), 2),
    GroupSpec((2,), 1),
)

CALCULI = (
    CalculusSpec(GroupSpec((2, 2, 2)), "characters", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    CalculusSpec(GroupSpec((2, 2, 2)), "characters", ((1, 1, 0), (0, 1, 0), (0, 0, 1))),
    CalculusSpec(GroupSpec((4,)), "characters", ((1,), (2,))),
    CalculusSpec(GroupSpec((), 2), "derivations"),
)


def rand_scalar(rng, ring):
    """A coefficient of the ring: raw ints and Fractions as well as Scalars."""
    if ring == "Q":
        return rng.choice([
            rng.randint(-3, 3),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Scalar.rational(rng.randint(-4, 4), rng.randint(1, 3)),
        ])
    if ring == "laurent":
        return Scalar.laurent(
            [(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        )
    acc = Scalar.zero()
    for _ in range(rng.randint(1, 3)):
        acc = acc + rng.choice([-2, -1, 1, 3]) * Scalar.root_of_unity(ring, rng.randrange(ring))
    return acc


def rand_element(rng, group):
    """Coordinates outside their canonical range, so keys need reducing."""
    return tuple(rng.randint(-m, 2 * m) for m in group.cyclic_orders) + tuple(
        rng.randint(-2, 2) for _ in range(group.free_rank)
    )


def rand_terms(rng, ring, key):
    """Terms with repeated keys, some of which cancel to zero."""
    terms = []
    for _ in range(rng.randint(0, 6)):
        if terms and rng.random() < 0.3:
            k, c = rng.choice(terms)
            terms.append((k, -(c if isinstance(c, Scalar) else Scalar.rational(c))))
        else:
            terms.append((key(), rand_scalar(rng, ring)))
    rng.shuffle(terms)
    return terms


def index_sets(n):
    return [S for r in range(n + 1) for S in itertools.combinations(range(1, n + 1), r)]


def assert_same(x, ref):
    assert x.terms == ref.terms
    assert str(x) == str(ref)
    assert repr(x) == repr(ref)
    assert hash(x) == hash(ref)


def compare_ops(rng, ring, space, new, ref, key):
    ta, tb = rand_terms(rng, ring, key), rand_terms(rng, ring, key)
    a, b, ra, rb = new(space, ta), new(space, tb), ref(space, ta), ref(space, tb)
    s = rand_scalar(rng, ring)
    for x, rx in (
        (a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (b - a, rb - ra),
        (s * a, s * ra), (-a, -ra), (a - a, ra - ra), (new(space), ref(space)),
    ):
        assert_same(x, rx)
    assert (a == b) == (ra == rb)
    assert (a == a + b) == (ra == ra + rb)
    assert a == new(space, list(reversed(ta)))
    assert (a - a).is_zero() and str(a - a) == "0"


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_graded_elements_match_reference(ring):
    rng = random.Random(f"graded-{ring}")
    for _ in range(40):
        group = rng.choice(GROUPS)
        compare_ops(
            rng, ring, group, GradedElement, RefGradedElement, lambda: rand_element(rng, group)
        )


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_forms_match_reference(ring):
    rng = random.Random(f"form-{ring}")
    for _ in range(40):
        spec = rng.choice(CALCULI)
        sets = index_sets(spec.n)
        compare_ops(
            rng, ring, spec, Form, RefForm,
            lambda: (rand_element(rng, spec.group), rng.choice(sets)),
        )


@pytest.mark.parametrize("ring", RINGS[1:], ids=str)
def test_scalar_render_matches_reference(ring):
    rng = random.Random(f"scalar-{ring}")
    for _ in range(60):
        c = rand_scalar(rng, ring)
        assert c.render() == ref_scalar_render(c)
        assert (-c).render() == ref_scalar_render(-c)


def test_spaces_are_compared():
    one, two = CALCULI[0], CALCULI[1]
    terms = [(((1, 0, 1), (1, 2)), 2), (((0, 0, 0), ()), -1)]
    assert Form(one, terms) != Form(two, terms)
    assert RefForm(one, terms) != RefForm(two, terms)
    assert Form(one, terms) == Form(one, terms)
    with pytest.raises(SpecMismatch, match="forms live over different calculi"):
        Form(one, terms) + Form(two, terms)
    z3, z6 = GroupSpec((3,)), GroupSpec((6,))
    assert GradedElement(z3, [((1,), 1)]) != GradedElement(z6, [((1,), 1)])
    with pytest.raises(SpecMismatch, match="elements live over different group specs"):
        GradedElement(z3, [((1,), 1)]) - GradedElement(z6, [((1,), 1)])
    # a form is not a group element, even over the trivial calculus part
    x = Form.basis(one, (1, 0, 0))
    assert not isinstance(x, GradedElement)
    assert x != GradedElement.basis(one.group, (1, 0, 0))
