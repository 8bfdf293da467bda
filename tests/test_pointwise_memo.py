"""The pointwise kernels that evaluate each pullback atom, prefactor inverse
and wedge sign once per check agree with the kernels they replaced
(pointwise_reference): equal forms on every basis pair, equal LawReports,
counterexamples included.  A counting wrap shows that identity_suite pulls
each (atom, tuple) at most once per call."""

import itertools
from collections import Counter

import pytest

import pointwise_reference as ref
from quasicyc.calculus import (
    CalculusSpec,
    Form,
    _all_index_sets,
    _wedge,
    differential,
    form_product,
)
from quasicyc.cochains import Cochain2, domain_elements
from quasicyc.cyclic import identity_suite, sample_tuples
from quasicyc.groups import GroupSpec
from quasicyc.presets import builtin
from quasicyc.scalars import Unit
from quasicyc.twist import TransportPrefactor, conjugator

OCT = builtin("octonion")
TOR = builtin("torus")
Z2 = GroupSpec((2,))
Z22 = GroupSpec((2, 2))
Z4 = GroupSpec((4,))
Z2_FREE = GroupSpec((), 2)
Z3_FREE = GroupSpec((), 3)
Z4_F = Cochain2.from_expr(Z4, ("root_of_unity", 4), "i1*i1*j1")  # no 2-cocycle
Z3_F = Cochain2.from_expr(Z3_FREE, ("laurent",), "i1*j2 - 2*i3*j1 + i2*j3")

# (id, calculus, twist, domain)
CALCULI = [
    ("octonion", OCT.calculus(), OCT.cochain(), "exhaustive"),
    ("Z4-two-weights", CalculusSpec(Z4, "characters", ((1,), (3,))), Z4_F, "exhaustive"),
    ("Z^2-derivations", TOR.calculus(), TOR.cochain(), ("window", 1)),
    ("Z^3-derivations", CalculusSpec(Z3_FREE, "derivations"), Z3_F, ("window", 1)),
]


def _basis(spec, domain):
    els, _ = domain_elements(spec.group, domain)
    return [Form.basis(spec, g, S)
            for g, S in itertools.product(els, _all_index_sets(spec.n))]


@pytest.mark.parametrize("name, spec, F, domain", CALCULI, ids=[c[0] for c in CALCULI])
def test_products_and_differentials_match_reference(name, spec, F, domain):
    basis = _basis(spec, domain)
    for x in basis:
        assert differential(spec, x) == ref.differential(spec, x)
        for y in basis:
            assert form_product(spec, x, y) == ref.form_product(spec, x, y)
            assert form_product(spec, x, y, F) == ref.form_product(spec, x, y, F)


def test_products_of_sums_match_reference():
    # several terms per factor, so signs and cancellations meet in one sum
    spec, F = OCT.calculus(), OCT.cochain()
    basis = _basis(spec, "exhaustive")
    sums = [basis[i] + basis[i + 9] - basis[i + 30] for i in range(0, 30, 3)]
    for x in sums:
        assert differential(spec, x) == ref.differential(spec, x)
        for y in sums:
            assert form_product(spec, x, y, F) == ref.form_product(spec, x, y, F)


def test_wedge_table_is_bounded():
    assert _wedge.cache_info().maxsize is not None
    assert _wedge((2,), (1, 3)) == (-1, (1, 2, 3))
    assert _wedge((1, 3), (2,)) == (-1, (1, 2, 3))
    assert _wedge((1,), (1, 2)) is None


def _planted(group):
    """A wrap that negates each coefficient at tuples whose last entry is
    not the identity: the identities then fail, with counterexamples."""
    e = group.identity()

    def wrap(pull):
        def slipped(t):
            t_in, c = pull(t)
            return (t_in, -c) if t[-1] != e else (t_in, c)
        return slipped

    return wrap


# (id, group, chi, twist, degree_max, window, samples)
SUITES = [
    ("Z2", Z2, (1,), builtin("z2_trivial").cochain(), 3, None, 40),
    ("Z2^2", Z22, (1, 0),
     Cochain2.from_expr(Z22, ("root_of_unity", 4), "i1*j2 + 3*i2*i2*j1"), 2, None, 40),
    ("Z^2-window", Z2_FREE, (), TOR.cochain(), 2, 2, 25),
]


@pytest.mark.parametrize(
    "name, group, chi, F, degree_max, window, samples", SUITES, ids=[s[0] for s in SUITES]
)
def test_identity_suite_matches_reference(name, group, chi, F, degree_max, window, samples):
    for wrap, holds in ((None, True), (conjugator(F), True), (_planted(group), False)):
        kwargs = dict(wrap=wrap, window=window, samples=samples, seed=4)
        reports = identity_suite(group, chi, degree_max, **kwargs)
        assert reports == ref.identity_suite(group, chi, degree_max, **kwargs)
        assert all(rep.holds for rep in reports) == holds


def _counting_wrap():
    """A wrap that counts pulls per (atom, tuple).  An atom is named by its
    code and the integer indices it closes over, so an atom rebuilt at each
    use counts as the same atom."""
    pulls = Counter()

    def wrap(pull):
        atom = (pull.__code__, tuple(
            cell.cell_contents for cell in pull.__closure__ or ()
            if type(cell.cell_contents) is int
        ))

        def counted(t):
            pulls[atom, t] += 1
            return pull(t)
        return counted

    return wrap, pulls


@pytest.mark.parametrize(
    "name, group, chi, F, degree_max, window, samples", SUITES, ids=[s[0] for s in SUITES]
)
def test_each_atom_is_pulled_once_per_tuple(name, group, chi, F, degree_max, window, samples):
    wrap, pulls = _counting_wrap()
    kwargs = dict(window=window, samples=samples, seed=4)
    reports = identity_suite(group, chi, degree_max, wrap=wrap, **kwargs)
    assert reports == ref.identity_suite(group, chi, degree_max, **kwargs)
    assert max(pulls.values()) == 1
    # the reference pulls the same (atom, tuple) again and again
    ref_wrap, ref_pulls = _counting_wrap()
    ref.identity_suite(group, chi, degree_max, wrap=ref_wrap, **kwargs)
    assert max(ref_pulls.values()) > 1
    assert set(ref_pulls) == set(pulls)


@pytest.mark.parametrize("F", [OCT.cochain(), Z4_F, TOR.cochain(), Z3_F],
                         ids=["octonion", "Z4", "Z^2", "Z^3"])
def test_prefactor_memoizes_the_inverse(F):
    grp = F.group
    for k in range(3):
        tuples = sample_tuples(grp, k, 1, 15, 2)
        for first in ("value", "inverse_value"):
            pref = TransportPrefactor(F)
            for t in tuples:
                getattr(pref, first)(t)
            for t in tuples:
                P, prefix = Unit.one(), t[0]
                for g in t[1:]:
                    P = P * F.value(prefix, g)
                    prefix = grp.mul(prefix, g)
                assert pref.value(t) == P
                assert pref.inverse_value(t) == P.inverse()
                assert pref.inverse_value(t) * P == 1
                assert pref.inverse_value(t) is pref.inverse_value(t)
