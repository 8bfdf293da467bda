"""Set-up, execution and exact output oracles for the benchmark's jobs.

Importing this module imports quasicyc; run.py times that import as part of
set-up.  Every job goes through the package's public API or through
`quasicyc.cli.main(argv)` in-process, and its output is compared exactly:
no job is dropped, and one that raises is a failed job.
"""

from __future__ import annotations

import contextlib
import io
import json

import quasicyc.cli
from quasicyc import presets
from quasicyc.calculus import character_direct, check_calculus
from quasicyc.cochains import Cochain2, braiding_R, check_cochain_laws, coboundary_phi
from quasicyc.cyclic import cohomology_dims, identity_suite, mixed_complex_report, periodicity_report
from quasicyc.groups import GroupSpec
from quasicyc.quasialgebra import check_ribbon_axiom
from quasicyc.twist import TransportPrefactor, conjugator, verify_transport

# certificate rows that report rather than assert
INFORMATIONAL = frozenset({"agree", "disagree", "holds", "does not hold"})
# the one skip the program documents for groups with a free part
FREE_GROUP_SKIP = "skipped: needs a finite group"


# -- set-up ---------------------------------------------------------------------


def build(plan: dict) -> list:
    """Build every group, preset and cochain the stream uses, validating each
    cochain's unitality.  Returns one context per round."""
    workload = plan["workload"]
    if workload == "dims":
        out = []
        for rnd in plan["rounds"]:
            fams = {}
            for fam in rnd["families"]:
                grp = GroupSpec(tuple(fam["orders"]))
                F = Cochain2.from_expr(grp, ("root_of_unity", fam["twist_order"]), fam["twist_expr"])
                fams[fam["id"]] = (fam, grp, tuple(fam["chi"]), F)
            out.append(fams)
        return out
    if workload == "certs":
        out = []
        for rnd in plan["rounds"]:
            pres = {}
            for p in rnd["presets"]:
                pre = presets.load(p["path"])
                pre.cochain()
                pres[p["id"]] = (p["path"], pre)
            out.append(pres)
        return out
    pool = {}
    for p in plan["pool"]:
        pre = presets.load(p["path"])
        pre.cochain()
        pool[p["id"]] = (pre, pre.calculus())
    return [pool] * len(plan["rounds"])


# -- execution --------------------------------------------------------------------


def run_cli(argv: list) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = quasicyc.cli.main(argv)
    return rc, out.getvalue()


def execute(workload: str, job: dict, ctx):
    """Run one job against its round context; return its raw output."""
    kind = job["kind"]
    if workload == "dims":
        fam, grp, chi, F = ctx[job["family"]]
        if kind == "dims":
            return cohomology_dims(grp, chi, fam["degree"], job["which"],
                                   twist=F if job["twisted"] else None)
        return [rep.holds for rep in periodicity_report(grp, chi, fam["period"])]

    if workload == "certs":
        path, pre = ctx[job["preset"]]
        chi = pre.ribbon_weight()
        if kind == "cli":
            return run_cli(["verify", "--preset", path, "--suite", job["suite"],
                            "--degree-max", str(job["degree"]), "--seed", str(job["seed"])])
        if kind == "ids":
            return [rep.holds for rep in identity_suite(pre.group, chi, job["degree"])]
        return [rep.holds for rep in mixed_complex_report(
            pre.group, chi, job["degree"], count=job["count"], seed=job["seed"])]

    pre, spec = ctx[job["preset"]]
    grp = pre.group
    F = pre.cochain()  # fresh Cochain2, cold memo, validated on construction
    domain = ("window", job["window"])
    if kind == "law":
        x = {"unital": F, "three_cocycle": coboundary_phi(F), "bicharacter": braiding_R(F)}[job["law"]]
        return [check_cochain_laws(x, job["law"], domain).holds]
    if kind == "calculus":
        return [check_calculus(spec, job["law"], F=F, domain=domain, degree_max=2).holds]
    if kind == "ribbon":
        return [check_ribbon_axiom(F, pre.ribbon_weight(), domain).holds]
    if kind == "ids":
        return [rep.holds for rep in identity_suite(
            grp, (), job["degree"], wrap=conjugator(F), window=job["window"],
            samples=job["samples"], seed=job["seed"])]
    if kind == "transport":
        return verify_transport(F, (), grp, job["degree"], calculus=spec, window=job["window"],
                                seed=job["seed"], preset=pre.name)
    pref = TransportPrefactor(F)
    out = []
    for t in job["tuples"]:
        t = tuple(tuple(g) for g in t)
        out.append((character_direct(spec, t, F), pref.value(t) * character_direct(spec, t)))
    return out


# -- oracles ----------------------------------------------------------------------


def dims_key(orders, chi, which) -> str:
    return f"{','.join(map(str, orders))}|{','.join(map(str, chi))}|{which}"


def _check_all_hold(holds) -> str | None:
    if not holds:
        return "empty report"
    if not all(h is True for h in holds):
        return f"law failed: {holds}"
    return None


def check_cert_rows(rows, allow_free_skip: bool) -> str | None:
    if not rows:
        return "certificate has no rows"
    for row in rows:
        status = row["status"]
        if status == "pass" or status in INFORMATIONAL:
            continue
        if allow_free_skip and status == FREE_GROUP_SKIP:
            continue
        return f"row {row['name']}: {status}"
    return None


class Oracle:
    """Exact checks of job outputs; keeps what later jobs are compared to."""

    def __init__(self, workload: str, reference: dict | None = None):
        self.workload = workload
        self.reference = reference or {}
        self._plain = {}    # (round, family, which) -> plain dims rows
        self._outputs = {}  # (round, job index) -> cli stdout

    def check(self, rnd: int, idx: int, job: dict, ctx, output) -> str | None:
        """None when the output is exactly right, else why it is not."""
        kind = job["kind"]
        if self.workload == "dims":
            if kind == "periodicity":
                return _check_all_hold(output)
            fam, grp, chi, _ = ctx[job["family"]]
            return self._check_dims(rnd, job, fam, grp, output)
        if self.workload == "certs":
            if kind != "cli":
                return _check_all_hold(output)
            rc, text = output
            first = self._outputs.get((rnd, job.get("repeat_of")))
            if first is not None and text != first:
                return "repeated job printed a different certificate"
            self._outputs[(rnd, idx)] = text
            if rc != 0:
                return f"exit code {rc}"
            return check_cert_rows(json.loads(text)["identities"], allow_free_skip=False)
        if kind == "transport":
            return check_cert_rows(output["identities"], allow_free_skip=True)
        if kind == "chars":
            bad = [i for i, (twisted, expected) in enumerate(output) if twisted != expected]
            if len(output) != len(job["tuples"]) or bad:
                return f"character transport differs at tuples {bad}"
            return None
        return _check_all_hold(output)

    def _check_dims(self, rnd, job, fam, grp, rows) -> str | None:
        degree, which = fam["degree"], job["which"]
        if [r["degree"] for r in rows] != list(range(degree + 1)):
            return "wrong degrees"
        size = grp.order()
        for r in rows:
            if r["dim"] != r["dim_C"] - r["rank_b_out"] - r["rank_b_in"] or r["dim"] < 0:
                return f"inconsistent row {r}"
            if which == "hh" and r["dim_C"] != size ** r["degree"]:
                return f"wrong dim_C {r}"
        ref = self.reference.get(dims_key(fam["orders"], grp.check_weight(fam["chi"]), which))
        if ref is None or rows != ref[:degree + 1]:
            return "differs from the reference table"
        key = (rnd, fam["id"], which)
        if not job["twisted"]:
            self._plain[key] = rows
        elif key in self._plain and rows != self._plain[key]:
            return "twisted dims differ from plain dims"
        return None
