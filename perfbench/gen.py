"""Seeded job-stream generator for the three benchmark workloads.

Pure Python: this module never imports quasicyc, so the benchmark can time a
cold `import quasicyc` after the stream has been generated.

A stream is a list of rounds.  Every round of a workload has the same
structure (groups, character orders, degrees, job kinds, domain sizes), so
the cost of a round depends little on the seed; the seed draws everything
numeric inside that structure: character weights within an order class,
twist expressions, calculus weights, sample seeds, tuples and the order of
families in the round.  Preset JSON files are written to the run's work
directory, inside the checkout but outside tracked files.

Job kinds and size caps are listed with each workload below.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

# Rounds whose inputs are built during set-up; a stream that outlasts them
# starts again at round 0 (same inputs, fresh job objects where a job builds
# them).
ROUNDS = 32

# -- helpers --------------------------------------------------------------------


def weight_order(orders, w) -> int:
    """Order of the character with weight vector w on Z_m1 x .. x Z_mr."""
    out = 1
    for m, wi in zip(orders, w):
        out = math.lcm(out, m // math.gcd(wi % m, m))
    return out


def _weights(orders):
    out = [()]
    for m in orders:
        out = [w + (x,) for w in out for x in range(m)]
    return out


def pick_weight(rng, orders, order) -> tuple:
    choices = [w for w in _weights(orders) if weight_order(orders, w) == order]
    if not choices:
        raise ValueError(f"no character of order {order} on Z{orders}")
    return rng.choice(choices)


def twist_expr(rng, orders, modulus: int, cubic: bool) -> str:
    """Random DSL expression whose every monomial has an i and a j variable,
    so zeta_modulus^expr is a unital 2-cochain.  The first monomial pairs
    largest-order coordinates with a unit coefficient, so the twist takes a
    primitive root value and its cost does not swing with the draw; later
    monomials are free and, if cubic is set, may be of degree 3."""
    rank = len(orders)
    top = [a for a in range(1, rank + 1) if orders[a - 1] == max(orders)]
    units = [c for c in range(1, max(modulus, 2)) if math.gcd(c, modulus) == 1]
    terms = [f"{rng.choice(units)}*i{rng.choice(top)}*j{rng.choice(top)}"]
    for _ in range(rng.randint(0, 2)):
        factors = [f"i{rng.randint(1, rank)}", f"j{rng.randint(1, rank)}"]
        if cubic and rng.random() < 0.5:
            factors.append(f"{rng.choice('ij')}{rng.randint(1, rank)}")
        terms.append(f"{rng.randint(1, max(modulus - 1, 1))}*" + "*".join(factors))
    return " + ".join(terms)


def laurent_expr(rng, rank: int) -> str:
    """Random bilinear form of two terms with small nonzero coefficients;
    q^(expr) is then a unital bicharacter-type twist."""
    pairs = [(a, b) for a in range(1, rank + 1) for b in range(1, rank + 1)]
    out = ""
    for a, b in rng.sample(pairs, 2):
        c = rng.choice([-2, -1, 1, 2, 3])
        out += f"{' - ' if c < 0 else ' + '}{abs(c)}*i{a}*j{b}"
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


def _write_preset(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def _finite_preset(name, orders, twist_order, expr, weights) -> dict:
    return {
        "name": name,
        "group": {"cyclic_orders": list(orders), "free_rank": 0},
        "scalars": "cyclotomic" if twist_order > 2 else "rational",
        "cochain_F": {"expr": expr, "base": "root_of_unity", "order": twist_order},
        "calculus": {"kind": "characters", "weights": [list(w) for w in weights]},
    }


def _free_preset(name, rank, expr) -> dict:
    return {
        "name": name,
        "group": {"cyclic_orders": [], "free_rank": rank},
        "scalars": "laurent",
        "cochain_F": {"expr": expr, "base": "laurent"},
        "calculus": {"kind": "derivations"},
    }


# -- dims -------------------------------------------------------------------------
#
# One family per slot and round: cohomology_dims hh/hc, plain and twisted,
# plus periodicity_report where a degree is given.  Degrees keep the b-matrix
# at |G|^(k+1) x |G|^k <= 64 x 16 (Z2: 32 x 16), periodicity at |G|^(m+2) <= 64.
# (cyclic orders, character order, degree, twist order, periodicity degree)
DIMS_SLOTS = (
    ((2,), 2, 4, 2, 2),
    ((2,), 1, 4, 2, None),
    ((3,), 3, 2, 3, 1),
    ((3,), 1, 2, 3, None),
    ((4,), 4, 2, 4, 1),
    ((4,), 4, 2, 4, None),
    ((4,), 2, 2, 4, None),
    ((2, 2), 2, 2, 2, 1),
    ((5,), 1, 1, 5, None),
    ((6,), 6, 1, 6, None),
    ((2, 3), 3, 1, 6, None),
    ((7,), 1, 1, 7, None),
    ((8,), 8, 1, 8, None),
    ((8,), 8, 1, 8, None),
    ((8,), 4, 1, 8, None),
    ((2, 4), 4, 1, 4, None),
    ((2, 2, 2), 2, 1, 2, 0),
)


def dims_round(rng) -> dict:
    families = []
    for idx, (orders, chi_order, degree, twist_order, period) in enumerate(DIMS_SLOTS):
        families.append({
            "id": idx,
            "orders": list(orders),
            "chi": list(pick_weight(rng, orders, chi_order)),
            "degree": degree,
            "twist_order": twist_order,
            "twist_expr": twist_expr(rng, orders, twist_order, cubic=True),
            "period": period,
        })
    rng.shuffle(families)
    jobs = []
    for fam in families:
        for which in ("hh", "hc"):
            jobs.append({"kind": "dims", "family": fam["id"], "which": which, "twisted": False})
            jobs.append({"kind": "dims", "family": fam["id"], "which": which, "twisted": True})
        if fam["period"] is not None:
            jobs.append({"kind": "periodicity", "family": fam["id"]})
    return {"families": families, "jobs": jobs}


# -- certs ------------------------------------------------------------------------
#
# One preset per slot and round.  CLI suites cochain/algebra/calculus/twist
# (never cyclic: its periodicity leg is linear algebra) plus direct
# identity_suite and mixed_complex_report calls.  |G|^(d+1) <= 256 for the
# direct calls and calculus, <= 64 for the twist suite.  Character orders
# cover the +-1 integer fast path of mixed_complex_report and the Scalar path.
# (cyclic orders, twist order, calculus weight orders, jobs)
# job tuples: ("cli", suite, degree) | ("ids", degree) | ("mixed", degree, count)
CERTS_SLOTS = (
    ((2, 2, 2), 2, (2, 2), (("cli", "cochain", 1), ("cli", "algebra", 1), ("ids", 1), ("mixed", 1, 20))),
    ((2, 2), 2, (2, 2), (("cli", "cochain", 1), ("cli", "algebra", 1), ("cli", "calculus", 2),
                         ("cli", "twist", 1), ("ids", 2), ("mixed", 2, 20))),
    ((4,), 4, (4, 2), (("cli", "cochain", 1), ("cli", "algebra", 1), ("cli", "calculus", 2),
                       ("cli", "twist", 1), ("ids", 2), ("mixed", 2, 10))),
    ((3,), 3, (3,), (("cli", "cochain", 1), ("cli", "algebra", 1), ("cli", "calculus", 2),
                     ("cli", "twist", 1), ("ids", 1), ("ids", 2), ("mixed", 2, 10))),
    ((6,), 6, (6,), (("cli", "cochain", 1), ("cli", "algebra", 1), ("cli", "calculus", 1),
                     ("ids", 1), ("mixed", 1, 20))),
    ((2, 4), 4, (4,), (("cli", "cochain", 1), ("cli", "algebra", 1), ("cli", "calculus", 1),
                       ("ids", 1), ("mixed", 1, 10))),
    ((2,), 2, (2,), (("cli", "cochain", 1), ("cli", "algebra", 1), ("cli", "calculus", 3),
                     ("cli", "twist", 3), ("ids", 3), ("ids", 5), ("mixed", 3, 20), ("mixed", 5, 20))),
)


def certs_round(rng, workdir: str, r: int) -> dict:
    presets = []
    jobs = []
    for idx, (orders, twist_order, weight_orders, slot_jobs) in enumerate(CERTS_SLOTS):
        weights = [pick_weight(rng, orders, o) for o in weight_orders]
        name = f"certs_r{r}_s{idx}"
        expr = twist_expr(rng, orders, twist_order, cubic=True)
        path = _write_preset(workdir, name, _finite_preset(name, orders, twist_order, expr, weights))
        presets.append({"id": idx, "path": path})
        for spec in slot_jobs:
            seed = rng.randrange(1000)
            if spec[0] == "cli":
                jobs.append({"kind": "cli", "preset": idx, "suite": spec[1],
                             "degree": spec[2], "seed": seed})
            elif spec[0] == "ids":
                jobs.append({"kind": "ids", "preset": idx, "degree": spec[1]})
            else:
                jobs.append({"kind": "mixed", "preset": idx, "degree": spec[1],
                             "count": spec[2], "seed": seed})
    rng.shuffle(jobs)
    # a repeated CLI job must print a byte-identical certificate
    first = next(j for j in jobs if j["kind"] == "cli")
    jobs.append(dict(first, repeat_of=jobs.index(first)))
    return {"presets": presets, "jobs": jobs}


# -- window -----------------------------------------------------------------------
#
# Free groups with Laurent twists q^(bilinear expr) and the derivations
# calculus.  Every job builds a fresh Cochain2 from its preset.  Domains are
# capped so no job runs for more than about a second: three_cocycle only on a
# Z^2 window(1) (81^2 quadruples; window(2) would take ~40 s), bicharacter and
# leibniz/graded_trace on Z^2 window(1), Z^3 only on window(1);
# d_products_vanish stops at degree 2 (degree 3 on a Z^3 window(1) ~10 s).
WINDOW_POOL = (2, 2, 2, 2, 2, 2, 3, 3, 3)  # free ranks of the preset pool
# (job kind, free rank, window, extra)
WINDOW_JOBS = (
    ("law", 2, 2, "unital"),
    ("law", 3, 1, "unital"),
    ("law", 2, 1, "three_cocycle"),
    ("law", 2, 1, "bicharacter"),
    ("calculus", 2, 1, "leibniz"),
    ("calculus", 2, 2, "d_squared"),
    ("calculus", 3, 1, "closedness"),
    ("calculus", 2, 1, "graded_trace"),
    ("calculus", 2, 2, "d_products_vanish"),
    ("calculus", 3, 1, "d_products_vanish"),
    ("ribbon", 2, 2, None),
    ("ribbon", 3, 1, None),
    ("ids", 2, 2, (2, 30)),  # (degree, samples per case)
    ("ids", 3, 1, (1, 40)),
    ("transport", 2, 1, 1),
    ("transport", 3, 1, 1),
    ("chars", 2, 2, 40),
    ("chars", 2, 2, 40),
    ("chars", 2, 3, 40),
    ("chars", 2, 3, 40),
    ("chars", 3, 1, 40),
    ("chars", 3, 1, 40),
    ("chars", 3, 2, 40),
    ("chars", 3, 2, 40),
)


def window_pool(rng, workdir: str) -> list[dict]:
    pool = []
    for idx, rank in enumerate(WINDOW_POOL):
        name = f"window_p{idx}"
        path = _write_preset(workdir, name, _free_preset(name, rank, laurent_expr(rng, rank)))
        pool.append({"id": idx, "path": path, "rank": rank})
    return pool


def window_round(rng, pool) -> dict:
    jobs = []
    for kind, rank, window, extra in WINDOW_JOBS:
        preset = rng.choice([p["id"] for p in pool if p["rank"] == rank])
        job = {"kind": kind, "preset": preset, "window": window}
        if kind in ("law", "calculus"):
            job["law"] = extra
        elif kind == "ids":
            job["degree"], job["samples"] = extra
            job["seed"] = rng.randrange(1000)
        elif kind == "transport":
            job["degree"] = extra
            job["seed"] = rng.randrange(1000)
        elif kind == "chars":
            wels = list(itertools.product(range(-window, window + 1), repeat=rank))
            tuples = []
            for _ in range(extra):
                tail = [rng.choice(wels) for _ in range(rank)]
                head = tuple(-sum(x) for x in zip(*tail))
                tuples.append([list(head)] + [list(t) for t in tail])
            job["tuples"] = tuples
        jobs.append(job)
    rng.shuffle(jobs)
    return {"jobs": jobs}


# -- entry point --------------------------------------------------------------------

WORKLOADS = ("dims", "certs", "window")


def generate(workload: str, seed: int, workdir: str) -> dict:
    """The whole stream of a workload: {"rounds": [...], "pool": [...]}."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    base = random.Random(f"{workload}:{seed}")
    out = {"workload": workload, "seed": seed, "rounds": [], "pool": []}
    if workload == "window":
        out["pool"] = window_pool(base, workdir)
    for r in range(ROUNDS):
        rng = random.Random(f"{workload}:{seed}:{r}")
        if workload == "dims":
            out["rounds"].append(dims_round(rng))
        elif workload == "certs":
            out["rounds"].append(certs_round(rng, workdir, r))
        else:
            out["rounds"].append(window_round(rng, out["pool"]))
    return out
