"""The transport prefactor as it was before it was built by recursion over
suffixes, kept as the reference: P(g0..gk) as the left-to-right product of
k cochain values, each prefix multiplied out through GroupSpec.mul, and
transport listing P at every support tuple of the cochain's degree.
"""

from quasicyc.cyclic import CyclicCochain, full_tuples
from quasicyc.scalars import Unit


def prefactor(F, gs):
    """P(g0..gk) = F(g0,g1) F(g0g1,g2) ... F(g0...g_{k-1},gk)."""
    grp = F.group
    acc = Unit.one()
    prefix = gs[0]
    for g in gs[1:]:
        acc = acc * F.value(prefix, g)
        prefix = grp.mul(prefix, g)
    return acc


def transport(phi, F) -> CyclicCochain:
    """phi times P at every support tuple."""
    tuples = full_tuples(phi.group, phi.degree)
    vec = [prefactor(F, t) * v for t, v in zip(tuples, phi.vec)]
    return CyclicCochain(phi.group, phi.chi, phi.degree, vec)
