"""Tests of the benchmark's own code: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from bprelab import simulate  # noqa: E402
from bprelab.estimators import burkholder_sandwich  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("b", 3.0, 6.0, 0),  # overlaps a, as a second thread would
        spans.Span("c", 1.5, 2.5, 1),
        spans.Span("late", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    summary = spans.by_name(tree)
    assert summary["root"] == {"calls": 1, "self_s": pytest.approx(4.0), "total_s": 10.0}


def test_covered_length_merges_overlaps_and_gaps():
    assert spans.covered_length([]) == 0.0
    assert spans.covered_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


class _Owner:
    @staticmethod
    def leaf(x):
        return x + 1

    @classmethod
    def make(cls, x):
        return cls.leaf(x) * 2

    def method(self, x):
        return self.make(x)


def test_tracer_wraps_methods_nests_spans_and_restores():
    raw = dict(vars(_Owner))
    tracer = spans.Tracer()
    seen = []
    tracer.wrap(_Owner, "leaf", "leaf")
    tracer.wrap(_Owner, "make", "make", hook=lambda args, kwargs, result: seen.append(result))
    tracer.wrap(_Owner, "method", "method")
    assert _Owner().method(3) == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("method", None), ("make", 0), ("leaf", 1)
    ]
    assert seen == [8]
    tracer.restore()
    assert all(vars(_Owner)[k] is raw[k] for k in ("leaf", "make", "method"))


def test_worker_thread_spans_hang_under_the_waiting_main_span():
    tracer = spans.Tracer()
    ns = type("ns", (), {"work": staticmethod(lambda: threading.get_ident())})
    tracer.wrap(ns, "work", "work")
    root = tracer.open("root")
    with ThreadPoolExecutor(max_workers=2) as pool:
        for f in [pool.submit(ns.work) for _ in range(4)]:
            f.result()
    tracer.close(root)
    assert [s.parent for s in tracer.spans[1:]] == [0, 0, 0, 0]
    assert all(s.end >= s.start for s in tracer.spans)


# ---------------------------------------------------------------------------
# batch-reduce input


@pytest.fixture(scope="module")
def small_batch():
    return workloads.make_binary_batch(seed=5, replicas=4000, n_max=30)


def test_generated_batch_is_a_valid_trajectory_batch(small_batch):
    b = small_batch
    assert b.w.shape == (4000, 31) and b.a_hat.shape == (4000, 3, 30)
    assert np.all(b.w[:, 0] == 1.0)
    assert np.all(b.w >= 0.0)
    extinct = np.flatnonzero(b.status == simulate.STATUS_EXTINCT)
    completed = np.flatnonzero(b.status == simulate.STATUS_COMPLETED)
    assert len(extinct) and len(completed)
    assert np.all(b.status_gen[completed] == -1)
    for i in extinct:
        g = b.status_gen[i]
        assert b.w[i, g - 1] > 0.0 and np.all(b.w[i, g:] == 0.0)
    alive = b.w[completed]
    assert np.all(alive > 0.0)
    # W_n is Z_n / 1.5^n with Z_n even after the first generation
    z = np.rint(alive * 1.5 ** np.arange(31))
    assert np.allclose(alive * 1.5 ** np.arange(31), z) and np.all(z[:, 1:] % 2 == 0)


def test_generated_accumulators_match_their_definition(small_batch):
    b = small_batch
    for j, rho in enumerate(b.rho_grid):
        terms = rho ** np.arange(30) * np.diff(b.w[:50], axis=1)
        assert np.allclose(b.a_hat[:50, j], np.cumsum(terms, axis=1), rtol=1e-12, atol=0)
        for n in (1, 15, 28):
            assert simulate.increment_identity_check(b, rho, n) <= 1e-9
    assert burkholder_sandwich(b, 2.0, b.rho_grid[1], 14).ok


def test_generator_is_seeded_and_round_trips(small_batch, tmp_path):
    again = workloads.make_binary_batch(seed=5, replicas=4000, n_max=30)
    assert np.array_equal(again.w, small_batch.w)
    assert not np.array_equal(workloads.make_binary_batch(6, 4000, 30).w, small_batch.w)
    small_batch.save(workloads.batch_file(tmp_path))
    loaded = simulate.TrajectoryBatch.load(workloads.batch_file(tmp_path))
    assert np.array_equal(loaded.a_hat, small_batch.a_hat)
    assert loaded.rho_grid == small_batch.rho_grid


def test_annealed_p2_distance_matches_both_bundled_environments():
    binary = workloads.BINARY_LAW
    assert workloads.config_laws(ROOT, "gw-binary") == binary
    # E(W_{k+1} - W_k)^2 = Var(xi) / (m^2 m^k) with Var(xi) = 3/4, summed over
    # n..n+g-1, telescopes to (2/3)^n (1 - (2/3)^g)
    inc = [(4 * 0.75 - 1.5**2) / 1.5**2 / 1.5**k for k in range(40)]
    for n, gap in ((0, 10), (5, 20), (10, 20)):
        got = workloads.annealed_p2_distance(binary, n, gap)
        assert got == pytest.approx(sum(inc[n:n + gap]), rel=1e-12)
        assert got == pytest.approx((2 / 3) ** n * (1 - (2 / 3) ** gap), rel=1e-12)
    # two-state: every mean is 2, Var = 1 in one state and 0 in the other,
    # so q1 = 1/2 and b2 = (1/2)(1/4)
    two = workloads.config_laws(ROOT, "two-state")
    assert workloads.annealed_p2_distance(two, 3, 1) == pytest.approx(0.125 / 8, rel=1e-12)


# ---------------------------------------------------------------------------
# tiny-size smoke runs of each workload


def _small_root(tmp_path: Path, replicas: int) -> Path:
    root = tmp_path / "root"
    (root / "configs").mkdir(parents=True)
    for workload in workloads.RUN_WORKLOADS.values():
        text = (ROOT / workload.config).read_text()
        text = "\n".join(
            f"replicas: {replicas}" if line.startswith("replicas:") else line
            for line in text.splitlines()
        )
        (root / workload.config).write_text(text + "\n")
    return root


@pytest.mark.parametrize("workload", sorted(workloads.RUN_WORKLOADS))
def test_run_workload_smoke(workload, tmp_path):
    root = _small_root(tmp_path, replicas=3000)
    digests = []
    for rep in range(2):
        out = tmp_path / f"out{rep}"
        out.mkdir()
        seed = workloads.resolve_seed(root, workload, None)
        result = workloads.timed_body(root, workload, seed, out)
        tally = workloads.Tally()
        workloads.judge_run(root, workload, out, result, tally)
        assert tally.attempted > workloads.RUN_WORKLOADS[workload].checks
        assert tally.misses == []
        digests.append(workloads.report_digest(out))
    assert digests[0] == digests[1]


def test_run_judge_counts_a_wrong_verdict(tmp_path):
    root = _small_root(tmp_path, replicas=3000)
    result = workloads.timed_body(root, "gw-binary", 3, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    report["checks"][0]["passed"] = False
    (tmp_path / "report.json").write_text(json.dumps(report))
    tally = workloads.Tally()
    workloads.judge_run(root, "gw-binary", tmp_path, result, tally)
    assert len(tally.misses) == 2  # the failed check, and exit 0 despite it


def _judge_edited(tmp_path: Path, edit) -> tuple[int, list[str]]:
    """Judge a small gw-binary run after `edit` rewrites its output directory."""
    root = _small_root(tmp_path, replicas=3000)
    result = workloads.timed_body(root, "gw-binary", 3, tmp_path)
    edit(tmp_path)
    tally = workloads.Tally()
    return workloads.judge_run(root, "gw-binary", tmp_path, result, tally), tally.misses


def test_run_judge_reports_a_statistical_miss_without_failing_it(tmp_path):
    def flip(out: Path) -> None:
        report = json.loads((out / "report.json").read_text())
        for check in report["checks"]:
            if check["id"].endswith(".estimates-match-exact"):
                check["passed"] = False
        (out / "report.json").write_text(json.dumps(report))

    statistical, misses = _judge_edited(tmp_path, flip)
    assert statistical == 1
    assert misses == ["exit code 0, verdicts say 2"]


def test_run_judge_checks_annealed_distances_against_its_closed_form(tmp_path):
    def shift(out: Path) -> None:
        path = out / "annealed_rate_p2.csv"
        head, first, *rest = path.read_text().splitlines()
        p, n, value, stderr = first.split(",")
        moved = float(value) + 10 * float(stderr)
        path.write_text("\n".join([head, f"{p},{n},{moved},{stderr}", *rest]) + "\n")

    _, misses = _judge_edited(tmp_path, shift)
    assert len(misses) == 1 and misses[0].startswith("annealed p=2 distance n=0")


def test_batch_reduce_smoke(small_batch, tmp_path):
    small_batch.save(workloads.batch_file(tmp_path))
    result = workloads.reduce_sweep(tmp_path)
    tally = workloads.Tally()
    workloads.judge_sweep(5, result, tally)
    assert tally.attempted > 2 * workloads.ORACLE_SAMPLES
    assert tally.misses == []


def test_batch_reduce_oracle_catches_a_wrong_estimate(small_batch, tmp_path):
    small_batch.save(workloads.batch_file(tmp_path))
    result = workloads.reduce_sweep(tmp_path)
    for est in result["lp"].values():
        est.value *= 1.0 + 1e-9
    tally = workloads.Tally()
    workloads.judge_sweep(5, result, tally)
    assert any("differs from numpy" in m for m in tally.misses)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "gw-binary",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
