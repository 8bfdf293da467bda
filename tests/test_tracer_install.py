"""The benchmark's tracer (perfbench/tracing.py, read only) still finds
everything it wraps: Tracer().install() resolves every traced name, wraps
it, counts through it, and uninstall() puts every original back.

The quick selftest runs no traced job, so without this test a rename in
quasicyc would first show as a failed `--trace 1` run.
"""

import importlib.util
import sys
from pathlib import Path

import quasicyc.cli  # noqa: F401  (imports every module the tracer wraps)
from quasicyc.cochains import coboundary_phi
from quasicyc.presets import builtin
from quasicyc.twist import TransportPrefactor

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(tracing):
    """(owner, attribute) of every method the tracer replaces on a class."""
    out = [
        (getattr(sys.modules[f"quasicyc.{mod}"], cls), meth)
        for mod, cls, meth, _ in tracing.COUNTED_METHODS + tracing.MEMO_METHODS
    ]
    scalar = sys.modules["quasicyc.scalars"].Scalar
    return out + [(scalar, meth) for meth in tracing.SCALAR_OPS]


def _snapshot(owners):
    values = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "quasicyc" or name.startswith("quasicyc.")
        for attr, value in vars(module).items()
    }
    values.update({(owner, attr): vars(owner)[attr] for owner, attr in owners})
    return values


def test_tracer_wraps_every_traced_attribute_and_restores_it():
    tracing = _tracing()
    owners = _owners(tracing)
    before = _snapshot(owners)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, name, _ in tracing.SPANS + tracing.COUNTED:
            key = (f"quasicyc.{mod}", name)
            assert key in before, key
            assert getattr(sys.modules[key[0]], name) is not before[key], key
        for owner, attr in owners:
            assert vars(owner)[attr] is not before[owner, attr], (owner, attr)
        # the memo counters read each owner's _memo when called
        F = builtin("octonion").cochain()
        t = ((1, 1, 0), (1, 0, 0), (0, 1, 0))
        pref = TransportPrefactor(F)
        assert pref.value(t) == pref.value(t)
        phi = coboundary_phi(F)
        phi.value(*t)
        phi.value(*t)
        assert tracer.calls["twist.prefactor"] == 2
        assert tracer.hits["twist.prefactor"] == 1
        assert tracer.calls["cochains.value"] >= 2
        assert tracer.hits["cochains.value"] >= 1
        assert tracer.calls["groups.mul"] > 0
    finally:
        tracer.uninstall()
    after = _snapshot(owners)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
