"""The benchmark's harness runs against the current package.

``perfbench/selftest.py`` wraps the package functions its tracer times and
runs one toy round of every workload; it exits non-zero when a traced name
is gone or a workload's check fails.  Running it here makes such a break
fail the unit tests instead of only the benchmark, and the tracer test
checks that the step still calls each timed layer through the names the
tracer wraps.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from tamedspde.coefficients import allen_cahn
from tamedspde.engine import BatchChains
from tamedspde.grid import Grid1D
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import SchemeConfig

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # the self-test imports the package from this checkout's src/ itself
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout


def _load_tracer():
    """perfbench/tracer.py as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_sees_each_layer_of_one_step():
    # A layer the step calls other than through the engine module's globals
    # escapes the tracer, and its per-layer metric reads 0.
    tracer_mod = _load_tracer()
    cfg = SchemeConfig(tau=0.125, grid=Grid1D(16), horizon=1.0, scheme="drift_gtem",
                       coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 15))
    chains = BatchChains(cfg, np.ones((2, 15)))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        chains.advance(np.zeros((2, 15)))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = [str(spans["names"][c]) for c in spans["code"]]
    for layer in ("engine.advance", "engine.step_rows", "coefficients.eval",
                  "fem.mass_matvec", "fem.dpbtrs"):
        assert names.count(layer) == 1, (layer, names)
