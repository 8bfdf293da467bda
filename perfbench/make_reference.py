"""Regenerate reference_dims.json: the exact untwisted cohomology rows for
every (group, character, hh/hc) the dims workload can generate, at the
largest degree it asks for.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import gen  # noqa: E402
from jobs import dims_key  # noqa: E402
from quasicyc.cyclic import cohomology_dims  # noqa: E402
from quasicyc.groups import GroupSpec  # noqa: E402


def main():
    degrees = {}
    for orders, chi_order, degree, _, _ in gen.DIMS_SLOTS:
        for w in gen._weights(orders):
            if gen.weight_order(orders, w) == chi_order:
                key = (orders, w)
                degrees[key] = max(degree, degrees.get(key, 0))
    table = {}
    for (orders, w), degree in sorted(degrees.items()):
        for which in ("hh", "hc"):
            table[dims_key(orders, w, which)] = cohomology_dims(GroupSpec(orders), w, degree, which)
    with open(os.path.join(BENCH_DIR, "reference_dims.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
