"""Per-layer spans and counts, recorded by wrapping quasicyc's public
functions from outside the package.

A wrapper replaces a function at every name it is looked up under: each
module attribute (in quasicyc and in the benchmark's own modules) that is
the original function object, and each class attribute, so
`quasicyc.cyclic.rank_kernel` is wrapped as well as
`quasicyc.linalg.rank_kernel`, and `Scalar.__rmul__` as well as
`Scalar.__mul__`.  Layer boundaries get spans (self time = span time minus
child spans, with job id and parent); hot leaves (Scalar arithmetic,
GroupSpec.mul/reduce/char_eval, cochain and prefactor lookups, DSL
evaluation) are only counted.  Spans stay in memory until `write_spans`.
Nothing is installed unless `install` is called, so untraced runs execute
the package untouched.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span, and the metric name they feed
SPANS = (
    ("linalg", "rank_kernel", "linalg.rank_kernel"),
    ("cyclic", "cohomology_dims", "cyclic.cohomology_dims"),
    ("cyclic", "periodicity_report", "cyclic.periodicity_report"),
    ("cyclic", "identity_suite", "cyclic.identity_suite"),
    ("cyclic", "mixed_complex_report", "cyclic.mixed_complex_report"),
    ("cyclic", "apply_face", "cyclic.apply"),
    ("cyclic", "apply_degeneracy", "cyclic.apply"),
    ("cyclic", "apply_lambda", "cyclic.apply"),
    ("cyclic", "apply_extra_degeneracy", "cyclic.apply"),
    ("cyclic", "apply_b", "cyclic.apply"),
    ("cyclic", "apply_N", "cyclic.apply"),
    ("cyclic", "apply_B", "cyclic.apply"),
    ("cyclic", "apply_S", "cyclic.apply"),
    ("twist", "verify_transport", "twist.verify_transport"),
    ("twist", "transport", "twist.transport"),
    ("twist", "transport_inverse", "twist.transport"),
    ("twist", "apply_b_twisted", "twist.apply"),
    ("twist", "apply_lambda_twisted", "twist.apply"),
    ("cochains", "check_cochain_laws", "cochains.check_cochain_laws"),
    ("calculus", "check_calculus", "calculus.check_calculus"),
    ("quasialgebra", "twisted_product", "quasialgebra.twisted_product"),
    ("presets", "load", "presets.load"),
    ("cli", "main", "cli.main"),
)

# module-level functions that are only counted
COUNTED = (
    ("calculus", "form_product", "calculus.form_product"),
    ("calculus", "character_direct", "calculus.character_direct"),
    ("exprdsl", "parse_expr", "exprdsl.parse_expr"),
    ("exprdsl", "eval_expr", "exprdsl.eval_expr"),
    ("scalars", "parse_scalar", "scalars.text"),
)

# (module, class, method, metric) counted; memo-backed ones also count hits
COUNTED_METHODS = (
    ("groups", "GroupSpec", "mul", "groups.mul"),
    ("groups", "GroupSpec", "reduce", "groups.reduce"),
    ("groups", "GroupSpec", "char_eval", "groups.char_eval"),
    ("scalars", "Scalar", "inverse", "scalars.inverse"),
    ("scalars", "Scalar", "render", "scalars.text"),
    ("scalars", "Scalar", "to_text", "scalars.text"),
)
MEMO_METHODS = (
    ("cochains", "Cochain2", "value", "cochains.value"),
    ("cochains", "Cochain3", "value", "cochains.value"),
    ("twist", "TransportPrefactor", "value", "twist.prefactor"),
)
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__",
)

# per-layer metrics reported by a traced run, with their units
METRICS = (
    ("linalg.rank_kernel.calls", "count"),
    ("linalg.rank_kernel.self_s", "s"),
    ("linalg.rank_kernel.cells", "count"),
    ("linalg.rank_kernel.kernel_vectors", "count"),
    ("cyclic.cohomology_dims.self_s", "s"),
    ("cyclic.periodicity_report.self_s", "s"),
    ("cyclic.identity_suite.calls", "count"),
    ("cyclic.identity_suite.self_s", "s"),
    ("cyclic.mixed_complex_report.self_s", "s"),
    ("cyclic.apply.calls", "count"),
    ("cyclic.apply.self_s", "s"),
    ("twist.verify_transport.self_s", "s"),
    ("twist.transport.calls", "count"),
    ("twist.transport.self_s", "s"),
    ("twist.apply.self_s", "s"),
    ("twist.prefactor.calls", "count"),
    ("twist.prefactor.hit_ratio", "ratio"),
    ("cochains.check_cochain_laws.self_s", "s"),
    ("cochains.value.calls", "count"),
    ("cochains.value.hit_ratio", "ratio"),
    ("calculus.check_calculus.self_s", "s"),
    ("calculus.form_product.calls", "count"),
    ("calculus.character_direct.calls", "count"),
    ("quasialgebra.twisted_product.calls", "count"),
    ("quasialgebra.twisted_product.self_s", "s"),
    ("exprdsl.parse_expr.calls", "count"),
    ("exprdsl.eval_expr.calls", "count"),
    ("groups.mul.calls", "count"),
    ("groups.reduce.calls", "count"),
    ("groups.char_eval.calls", "count"),
    ("scalars.ops.rational", "count"),
    ("scalars.ops.cyclotomic", "count"),
    ("scalars.ops.laurent", "count"),
    ("scalars.inverse.calls", "count"),
    ("scalars.text.calls", "count"),
    ("presets.load.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _module(name):
    return sys.modules[f"quasicyc.{name}"]


class Tracer:
    """Installs the wrappers and accumulates spans and counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.hits = defaultdict(int)
        self.cells = 0
        self.kernel_vectors = 0
        self.spans = []   # (name, job, parent index, start, end)
        self._stack = []  # [span index, start, child time]
        self.job = "setup"
        self._t0 = time.perf_counter()
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, metric, fn):
        spans, stack = self.spans, self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                calls[metric] += 1
                self_s[metric] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                spans[idx] = (metric, self.job, parent, frame[1] - self._t0, end - self._t0)
            if metric == "linalg.rank_kernel":
                rows = args[0] if args else kwargs["rows"]
                self.cells += len(rows) * (len(rows[0]) if rows else 0)
                self.kernel_vectors += len(out[1])
            return out

        return wrapper

    def _count(self, metric, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _memo_count(self, metric, fn):
        calls, hits = self.calls, self.hits

        def wrapper(obj, *args, **kwargs):
            calls[metric] += 1
            before = len(obj._memo)
            out = fn(obj, *args, **kwargs)
            if len(obj._memo) == before:
                hits[metric] += 1
            return out

        return wrapper

    def _scalar_op(self, fn):
        calls = self.calls
        from quasicyc.scalars import Scalar

        def wrapper(a, *rest):
            tags = {a.tag}
            if rest and isinstance(rest[0], Scalar):
                tags.add(rest[0].tag)
            if "laurent" in tags:
                calls["scalars.ops.laurent"] += 1
            elif "cyclotomic" in tags:
                calls["scalars.ops.cyclotomic"] += 1
            else:
                calls["scalars.ops.rational"] += 1
            return fn(a, *rest)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every traced function under every name it is bound to."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "quasicyc" or n.startswith("quasicyc.")]
        modules += list(extra_modules)
        replace = {}
        for mod, name, metric in SPANS:
            fn = getattr(_module(mod), name)
            replace[id(fn)] = (fn, self._span(metric, fn))
        for mod, name, metric in COUNTED:
            fn = getattr(_module(mod), name)
            replace[id(fn)] = (fn, self._count(metric, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for mod, cls, meth, metric in COUNTED_METHODS:
            owner = getattr(_module(mod), cls)
            self._set(owner, meth, self._count(metric, owner.__dict__[meth]))
        for mod, cls, meth, metric in MEMO_METHODS:
            owner = getattr(_module(mod), cls)
            self._set(owner, meth, self._memo_count(metric, owner.__dict__[meth]))
        scalar = _module("scalars").Scalar
        for meth in SCALAR_OPS:
            self._set(scalar, meth, self._scalar_op(scalar.__dict__[meth]))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        def ratio(metric):
            calls = self.calls[metric]
            return self.hits[metric] / calls if calls else 0.0

        values = {}
        for metric, _ in METRICS:
            head, _, tail = metric.rpartition(".")
            if metric == "trace.overhead_frac":
                values[metric] = overhead_frac
            elif metric == "linalg.rank_kernel.cells":
                values[metric] = self.cells
            elif metric == "linalg.rank_kernel.kernel_vectors":
                values[metric] = self.kernel_vectors
            elif metric.startswith("scalars.ops."):
                values[metric] = self.calls[metric]
            elif tail == "calls":
                values[metric] = self.calls[head]
            elif tail == "self_s":
                values[metric] = self.self_s[head]
            elif tail == "hit_ratio":
                values[metric] = ratio(head)
            else:
                raise KeyError(metric)
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for name, job, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "job": job, "parent": parent,
                                     "start": round(start, 7), "end": round(end, 7)}))
                fh.write("\n")
