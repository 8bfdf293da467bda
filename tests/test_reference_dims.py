"""The dims workload's oracle in the unit tests: cohomology_dims reproduces
every entry of perfbench/reference_dims.json, untwisted and twisted by a
bicharacter and by a cubic twist that is not a 2-cocycle.  Twist invariance
is the paper's theorem: the twisted rows equal the untwisted ones.  The file
is only read here.
"""

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
