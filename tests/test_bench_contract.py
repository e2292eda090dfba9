"""The benchmark's trace wraps program names where their callers bind them.

`bench/workloads.py::install_trace` looks each name up on its module or
class, so a change to `src/` that drops or renames one breaks
`python3 bench/run.py --trace 1`; this test fails first.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from bprelab import cli, harness, simulate  # noqa: E402


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
