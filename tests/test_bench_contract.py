"""The benchmark's trace wraps program names where their callers bind them.

`bench/workloads.py::install_trace` looks each name up on its module or
class, and `workloads.thread_speedup` calls `simulate.run` itself, so a
change to `src/` that drops or renames one, or refuses what the probe
passes, breaks `python3 bench/run.py --trace 1`; these tests fail first.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from bprelab import cli, harness, simulate  # noqa: E402
from bprelab.config import load_config  # noqa: E402


def test_install_trace_binds_every_name():
    tracer = spans.Tracer()
    try:
        workloads.install_trace(tracer)
        assert len(tracer._patched) == 29
        assert harness.run is not simulate.run
    finally:
        tracer.restore()
    assert harness.run is simulate.run
    assert cli.run_experiment is harness.run_experiment


def test_trace_sees_every_layer_a_relation_reaches():
    # a relation that bound one of these names itself would call past the wrap
    overrides = {"replicas": 2000, "n_max": 12, "gap": 6,
                 "suites": ["annealed-rate", "burkholder", "identity"]}
    cfg = load_config(ROOT / "configs" / "gw_binary.cfg", overrides)
    tracer = spans.Tracer()
    try:
        workloads.install_trace(tracer)
        harness.run_experiment(cfg)
    finally:
        tracer.restore()
    calls = {name: entry["calls"] for name, entry in spans.by_name(tracer.spans).items()}
    for name in ("simulate.run", "estimators.lp_norm", "estimators.fit_decay",
                 "estimators.burkholder_sandwich", "simulate.increment_identity_check"):
        assert calls.get(name, 0) > 0, name


def test_the_traced_thread_probe_runs():
    # bench/run.py --trace calls simulate.run with threads= and a SimConfig with a rho grid
    ratio = workloads.thread_speedup(ROOT, 1)
    assert math.isfinite(ratio) and ratio > 0
