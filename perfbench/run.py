"""quasicyc benchmark: seeded, closed-loop streams of exact jobs.

    python3 perfbench/run.py --workload dims|certs|window --seed N --seconds S --trace 0|1

Load model: one client, one process, one thread, closed loop: the next job
starts when the previous one returns.  The stream runs whole rounds (see
gen.py) until --seconds have passed and at least MIN_JOBS jobs are done.
Each job's output is checked exactly (jobs.Oracle); a job that raises or
answers wrongly is a failed job.

--trace 0 prints the end-to-end metrics: jobs_per_s, latency_p50_s,
latency_p90_s, setup_s, peak_rss_mb (failed_frac goes in the human-readable
lines and in the attempted/failed fields of the result).  --trace 1 wraps
every layer (tracing.py), runs TRACE_ROUNDS rounds and prints the per-layer
metrics, including the overhead against the same rounds run untraced in a
fresh interpreter.  The last line of standard output is one JSON object.

Set-up (setup_s) is a cold `import quasicyc` plus building every preset and
cochain the stream needs; it is measured SETUP_SAMPLES times in fresh
interpreters and reported as the median.

Reported times are host-normalized ("reference seconds"): wall seconds scaled
by CAL_REF_S / (median time of a fixed pure-Python kernel run next to them,
once before every job).  A shared host can drift twofold in speed within
minutes, which swamps the program's own changes; the kernel never touches
quasicyc, so a faster program still reads faster.  The raw wall-time figures
are printed in the human-readable lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_JOBS = 100
SETUP_SAMPLES = 5
TRACE_ROUNDS = 1
SUBPROCESS_TIMEOUT = 150
CAL_REF_S = 0.002  # nominal kernel time: one reference second = wall s x CAL_REF_S / kernel s
CAL_SAMPLES = 5
CAL_WINDOW = 4  # a job is scaled by the kernel times of its 2*4+1 neighbours

import gen  # noqa: E402  (pure Python, no quasicyc import)


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child(args: list) -> dict:
    """Run this script in a fresh interpreter; return its JSON last line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _kernel():
    """Fixed pure-Python work (Fractions, tuples, dicts) independent of quasicyc."""
    from fractions import Fraction

    acc, table = Fraction(0), {}
    for i in range(1, 900):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 17 + 1, i % 19 + 1)
    return acc, len(table)


def kernel_seconds() -> float:
    """One timed kernel run with the collector off, so the program's heap
    does not change what it measures."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scale() -> float:
    """Reference seconds per wall second right now."""
    return CAL_REF_S / statistics.median(kernel_seconds() for _ in range(CAL_SAMPLES))


def _import_and_build(plan):
    import jobs

    return jobs, jobs.build(plan)


def run_stream(jobs, workload, plan, ctx, oracle, seconds=None, rounds=None,
               tracer=None, corrupt=None, errors=None):
    """Closed loop over whole rounds.  Stops after `rounds` rounds, or once
    `seconds` have passed and MIN_JOBS jobs are done.  The calibration kernel
    runs once before every job, outside the job's timing; each job time is
    scaled by CAL_REF_S / (median kernel time of the jobs within CAL_WINDOW
    of it in the same round).

    Returns a dict: wall and reference-second latencies of every job, the
    failed count, the wall time, the summed reference-second job time, and
    per-round throughputs (correct jobs / summed job time) in reference and
    wall seconds."""
    out = {"latencies": [], "ref_latencies": [], "failed": 0, "ref_busy": 0.0,
           "throughputs": [], "wall_throughputs": []}
    start = time.perf_counter()
    r = 0
    while True:
        rnd = plan["rounds"][r % len(plan["rounds"])]
        rctx = ctx[r % len(ctx)]
        lat, cal, round_failed = [], [], 0
        for idx, job in enumerate(rnd["jobs"]):
            cal.append(kernel_seconds())
            if tracer is not None:
                tracer.job = f"{r}:{idx}"
            t = time.perf_counter()
            try:
                res = jobs.execute(workload, job, rctx)
                err = None
            except Exception as exc:  # a job that raises is a failed job
                res, err = None, f"raised {type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t)
            if err is None:
                if corrupt is not None:
                    res = corrupt(job, res)
                try:
                    err = oracle.check(r, idx, job, rctx, res)
                except Exception as exc:
                    err = f"oracle could not read the output: {type(exc).__name__}: {exc}"
            if err is not None:
                round_failed += 1
                if errors is not None:
                    errors.append(f"round {r} job {idx} {job['kind']}: {err}")
        ref = [x * CAL_REF_S / statistics.median(cal[max(i - CAL_WINDOW, 0):i + CAL_WINDOW + 1])
               for i, x in enumerate(lat)]
        ok = len(lat) - round_failed
        out["latencies"] += lat
        out["ref_latencies"] += ref
        out["failed"] += round_failed
        out["ref_busy"] += sum(ref)
        out["throughputs"].append(ok / sum(ref))
        out["wall_throughputs"].append(ok / sum(lat))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds and len(out["latencies"]) >= MIN_JOBS:
            break
    out["wall"] = time.perf_counter() - start
    return out


def load_reference(workload):
    if workload != "dims":
        return None
    with open(os.path.join(BENCH_DIR, "reference_dims.json")) as fh:
        return json.load(fh)


def _result(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _report_errors(errors):
    for line in errors[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if len(errors) > 10:
        print(f"perfbench: ... {len(errors) - 10} more failures", file=sys.stderr)


def main_untraced(args, plan) -> int:
    # the in-process import first, so every probe finds compiled bytecode
    jobs, ctx = _import_and_build(plan)
    samples = [_child(["--probe-setup", "--workload", args.workload, "--seed", str(args.seed),
                       "--workdir", args.workdir])
               for _ in range(SETUP_SAMPLES)]
    oracle = jobs.Oracle(args.workload, load_reference(args.workload))
    errors = []
    res = run_stream(jobs, args.workload, plan, ctx, oracle, seconds=args.seconds, errors=errors)
    _report_errors(errors)
    lat, failed, rounds = res["ref_latencies"], res["failed"], res["throughputs"]
    n = len(lat)
    metrics = {
        # rounds have one structure, so the median round resists noise bursts
        "jobs_per_s": (statistics.median(rounds), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {"jobs_per_s": len(rounds), "setup_s": SETUP_SAMPLES}
    wall = res["latencies"]
    print(f"workload {args.workload} seed {args.seed}: {n} jobs in {len(rounds)} rounds, "
          f"{res['wall']:.2f} s, {failed} failed; round jobs/s "
          + " ".join(f"{x:.3f}" for x in rounds))
    print("  reference seconds (wall s x host scale):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.6g} {unit:<5} (n={counts.get(name, n)})")
    print(f"  {'failed_frac':<14} {failed / n:12.6g} {'ratio':<5} (n={n})")
    print("  wall clock:")
    for name, value, unit in (
        ("jobs_per_s", statistics.median(res["wall_throughputs"]), "1/s"),
        ("latency_p50_s", statistics.median(wall), "s"),
        ("latency_p90_s", statistics.quantiles(wall, n=10)[8], "s"),
        ("setup_s", statistics.median(s["wall_s"] for s in samples), "s"),
        ("host_scale", res["ref_busy"] / sum(wall), "ref/s"),
    ):
        print(f"  {name:<14} {value:12.6g} {unit}")
    print(_result(failed == 0, n, failed,
                  {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))
    return 0


def main_traced(args, plan) -> int:
    import tracing

    baseline = _child(["--untraced-rounds", str(TRACE_ROUNDS), "--workload", args.workload,
                       "--seed", str(args.seed), "--workdir", args.workdir])
    import jobs

    tracer = tracing.Tracer()
    tracer.install(extra_modules=[jobs])
    try:
        ctx = jobs.build(plan)
        oracle = jobs.Oracle(args.workload, load_reference(args.workload))
        errors = []
        res = run_stream(jobs, args.workload, plan, ctx, oracle,
                         rounds=TRACE_ROUNDS, tracer=tracer, errors=errors)
    finally:
        tracer.uninstall()
    _report_errors(errors)
    lat, failed = res["latencies"], res["failed"]
    overhead = (res["ref_busy"] - baseline["ref_busy"]) / baseline["ref_busy"]
    metrics = tracer.metrics(overhead)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    span_file = os.path.join(WORK, "traces", f"{args.workload}-{args.seed}.jsonl")
    tracer.write_spans(span_file)
    print(f"workload {args.workload} seed {args.seed}: traced {len(lat)} jobs "
          f"({TRACE_ROUNDS} rounds), {failed} failed, {len(tracer.spans)} spans in {span_file}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:14.6g} {m['unit']}")
    print(_result(failed == 0, len(lat), failed, metrics))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: fresh-interpreter helpers started by this script itself
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--untraced-rounds", type=int, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quasicyc", "__init__.py")):
        return _fail(f"no quasicyc sources under {SRC}")
    sys.path.insert(0, SRC)

    child = args.workdir is not None
    if not child:
        args.workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        plan = gen.generate(args.workload, args.seed, args.workdir)
        if args.probe_setup:
            start = time.perf_counter()
            _import_and_build(plan)
            wall = time.perf_counter() - start
            print(json.dumps({"setup_s": wall * host_scale(), "wall_s": wall}))
            return 0
        if args.untraced_rounds:
            jobs, ctx = _import_and_build(plan)
            oracle = jobs.Oracle(args.workload, load_reference(args.workload))
            res = run_stream(jobs, args.workload, plan, ctx, oracle, rounds=args.untraced_rounds)
            print(json.dumps({"ref_busy": res["ref_busy"], "failed": res["failed"]}))
            return 0
        if args.trace:
            return main_traced(args, plan)
        return main_untraced(args, plan)
    finally:
        if not child:
            shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
