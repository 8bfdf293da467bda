"""Self-test of the benchmark itself; exits 1 when any check fails.

    python3 perfbench/selftest.py [--quick]

1. Smoke: a short run of every workload prints every end-to-end metric of
   BENCHMARK.json with its unit, with no failed job.
2. Planted wrong answers: every oracle rejects a perturbed output of every
   job kind (and a job that raises), so failed_frac rises above 0.
3. Traced runs: every per-layer metric is reported, each layer is nonzero on
   the workload meant to exercise it, rank_kernel is never called on certs
   or window, and two traced runs of one seed give identical counts.
4. A directory holding only BENCHMARK.json and the benchmark exits nonzero
   without printing a result.

--quick skips 3 (the slowest part).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402

SEED = 3
FAILURES = []

# layer metrics that must be nonzero on the workload meant to exercise them
EXERCISED = {
    "dims": (
        "linalg.rank_kernel.calls", "linalg.rank_kernel.cells", "linalg.rank_kernel.kernel_vectors",
        "cyclic.cohomology_dims.self_s", "cyclic.periodicity_report.self_s", "cyclic.apply.calls",
        "twist.prefactor.calls", "exprdsl.parse_expr.calls", "exprdsl.eval_expr.calls",
        "groups.mul.calls", "groups.reduce.calls", "groups.char_eval.calls",
        "scalars.ops.rational", "scalars.ops.cyclotomic", "scalars.inverse.calls",
    ),
    "certs": (
        "cyclic.identity_suite.calls", "cyclic.mixed_complex_report.self_s", "cyclic.apply.calls",
        "twist.verify_transport.self_s", "twist.transport.calls", "twist.prefactor.calls",
        "cochains.check_cochain_laws.self_s", "cochains.value.calls",
        "calculus.check_calculus.self_s", "calculus.form_product.calls",
        "calculus.character_direct.calls", "quasialgebra.twisted_product.calls",
        "exprdsl.parse_expr.calls", "groups.mul.calls", "groups.reduce.calls",
        "groups.char_eval.calls", "scalars.ops.rational", "scalars.ops.cyclotomic",
        "scalars.text.calls", "presets.load.self_s", "cli.main.calls", "cli.main.self_s",
    ),
    "window": (
        "cyclic.identity_suite.calls", "twist.verify_transport.self_s", "twist.prefactor.calls",
        "cochains.check_cochain_laws.self_s", "cochains.value.calls",
        "calculus.check_calculus.self_s", "calculus.form_product.calls",
        "calculus.character_direct.calls", "exprdsl.parse_expr.calls", "exprdsl.eval_expr.calls",
        "groups.mul.calls", "groups.reduce.calls", "scalars.ops.laurent",
        "scalars.inverse.calls", "presets.load.self_s",
    ),
}


def check(cond, msg):
    print(("ok    " if cond else "FAIL  ") + msg, flush=True)
    if not cond:
        FAILURES.append(msg)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(args, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH_DIR, "run.py")
    return subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# -- 1. smoke -------------------------------------------------------------------


def smoke(spec):
    for w in gen.WORKLOADS:
        proc = run_bench(["--workload", w, "--seed", str(SEED), "--seconds", "1", "--trace", "0"])
        check(proc.returncode == 0, f"smoke {w}: exit code {proc.returncode} {proc.stderr[-500:]}")
        if proc.returncode:
            continue
        res = last_json(proc.stdout)
        check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"smoke {w}: result keys")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= run.MIN_JOBS,
              f"smoke {w}: {res['attempted']} jobs, {res['failed']} failed")
        for m in spec["end_to_end"]:
            got = res["metrics"].get(m["name"], {})
            check(got.get("unit") == m["unit"] and got.get("value", 0) > 0,
                  f"smoke {w}: {m['name']} = {got}")
        check("failed_frac" in proc.stdout, f"smoke {w}: failed_frac printed")


# -- 2. planted wrong answers --------------------------------------------------------


def _flip_row(cert, status="fail"):
    rows = cert["identities"]
    i = next(i for i, r in enumerate(rows) if r["status"] == "pass")
    rows[i] = dict(rows[i], status=status)
    return cert


def corrupt(workload, job, out):
    """A wrong answer of the right shape for every job kind."""
    kind = job["kind"]
    if workload == "dims" and kind == "dims":
        rows = [dict(r) for r in out]
        # consistent row, wrong value: only the reference/transport checks see it
        rows[-1]["dim"] += 1
        rows[-1]["rank_b_out"] -= 1
        return rows
    if workload == "certs" and kind == "cli":
        rc, text = out
        if job.get("repeat_of") is not None:
            return rc, text + "\n"  # still all-pass, but not byte-identical
        return rc, json.dumps(_flip_row(json.loads(text)), indent=2, sort_keys=True)
    if kind == "transport":
        return _flip_row(dict(out, identities=[dict(r) for r in out["identities"]]))
    if kind == "chars":
        return [(tw, ex + 1) for tw, ex in out[:1]] + out[1:]
    return [False] + out[1:]


class _Raises:
    """Stand-in for the jobs module whose execute raises on one job."""

    def __init__(self, jobs):
        self._jobs = jobs

    def execute(self, workload, job, ctx):
        if job is self.victim:
            raise RuntimeError("planted failure")
        return self._jobs.execute(workload, job, ctx)


def planted():
    import jobs

    for w in gen.WORKLOADS:
        workdir = os.path.join(run.WORK, f"selftest-{w}-{os.getpid()}")
        try:
            plan = gen.generate(w, SEED, workdir)
            plan["rounds"] = plan["rounds"][:1]
            ctx = jobs.build(plan)
            n = len(plan["rounds"][0]["jobs"])

            res = run.run_stream(jobs, w, plan, ctx, jobs.Oracle(w, run.load_reference(w)), rounds=1)
            check(res["failed"] == 0, f"planted {w}: clean round has {res['failed']}/{n} failures")

            res = run.run_stream(jobs, w, plan, ctx, jobs.Oracle(w, run.load_reference(w)), rounds=1,
                                 corrupt=lambda job, out: corrupt(w, job, out))
            check(res["failed"] == n, f"planted {w}: {res['failed']}/{n} corrupted outputs rejected")

            stub = _Raises(jobs)
            stub.victim = plan["rounds"][0]["jobs"][0]
            res = run.run_stream(stub, w, plan, ctx, jobs.Oracle(w, run.load_reference(w)), rounds=1)
            check(res["failed"] == 1 and len(res["latencies"]) == n,
                  f"planted {w}: a raising job counts as failed")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


# -- 3. traced runs ---------------------------------------------------------------------


def traced(spec):
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in gen.WORKLOADS:
        results = []
        for _ in range(2):
            proc = run_bench(["--workload", w, "--seed", str(SEED), "--seconds", "1", "--trace", "1"])
            check(proc.returncode == 0, f"traced {w}: exit code {proc.returncode} {proc.stderr[-500:]}")
            if proc.returncode:
                return
            results.append(last_json(proc.stdout))
        first, second = (r["metrics"] for r in results)
        check(results[0]["failed"] == 0, f"traced {w}: no failed job")
        check({k: v["unit"] for k, v in first.items()} == names,
              f"traced {w}: reports every per-layer metric with its unit")
        counts = [k for k, u in names.items() if u == "count" or k.endswith("hit_ratio")]
        diff = [k for k in counts if first[k]["value"] != second[k]["value"]]
        check(not diff, f"traced {w}: counts repeat exactly across two runs {diff}")
        for k in EXERCISED[w]:
            check(first[k]["value"] > 0, f"traced {w}: {k} = {first[k]['value']}")
        if w != "dims":
            check(first["linalg.rank_kernel.calls"]["value"] == 0, f"traced {w}: no rank_kernel call")


# -- 4. bare directory -------------------------------------------------------------------


def bare(spec):
    where = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(where)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), where)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(where, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "dims", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=where, script=os.path.join(where, "perfbench", "run.py"))
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              f"bare directory: exit code {proc.returncode}, no result")
    finally:
        shutil.rmtree(where, ignore_errors=True)


def main():
    spec = bench_spec()
    bare(spec)
    planted()
    smoke(spec)
    if "--quick" not in sys.argv:
        traced(spec)
    print(f"{len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
