"""Time-to-verdict benchmark for bprelab.

Usage, from the repository root:

    python3 bench/run.py --workload gw-binary [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all          # every workload in turn

Workloads:
  gw-binary     `bprelab run configs/gw_binary.cfg --threads 1`
  two-state     `bprelab run configs/two_state.cfg --threads 2`
  batch-reduce  load a 100k x 30 binary-law batch and sweep the estimators

BENCHMARK.json lists only gw-binary and two-state. batch-reduce's sweep is
memory-bound, and on a shared 2-core VM its median moved by 27-38% between
two sets of ten runs, more than any bound can absorb; it stays runnable and
traceable by name (bench/baseline.json holds its figures).

The workload seed replaces the config's master_seed (batch-reduce draws its
batch from it) and defaults to the config's own. Every sample runs in a
fresh interpreter (child.py): set-up samples after one warm-up (at least
three, and more while they take under four seconds), then repetitions until
--seconds have passed, and at least two. Untraced runs print the end-to-end
metrics; --trace 1 pairs each untraced repetition with a traced one and
prints the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gw-binary", "two-state", "batch-reduce")
REQUIRED = ("BENCHMARK.json", "src/bprelab/__init__.py", "configs/gw_binary.cfg",
            "configs/two_state.cfg")

# replica-generations a run simulates (summed over its batches) or, for
# batch-reduce, reduces; the traced run counts the simulated ones
WORK = {"gw-binary": 100_000 * 30, "two-state": 1_400_000, "batch-reduce": 100_000 * 30}

# set-up samples: at least this many, and more while they take under SETUP_SECONDS
SETUP_SAMPLES = 3
SETUP_SECONDS = 4.0
# a run lasts at least two repetitions: gw-binary's take 11-20 s each here
MIN_REPS = 2
# a run must end within 180 s; no repetition starts that would end past this
HARD_LIMIT_S = 150.0


class ChildFailed(Exception):
    pass


def spawn(spec: dict, timeout: float) -> dict:
    """Run child.py on `spec` and return its JSON line, stamped with the spawn time."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{spec['mode']} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise ChildFailed(f"{spec['mode']} exited {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spawned"] = spawned
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/bprelab/*.py"), *ROOT.glob("configs/*.cfg")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata(seed: int | None) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": os.getloadavg(),
        "seed_arg": seed,
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    layers, counters = rep["layers"], rep["counters"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    sim_s = get("simulate.run", "total_s")
    seen = counters.get("batch_replicas", 0)
    out = {
        "config.load_config_s": rep["load_config_s"],
        "simulate.replicas_per_s": counters.get("sim_replicas", 0) / sim_s if sim_s else 0.0,
        "simulate.replica_gens": counters.get("sim_replica_gens", 0),
        "simulate.uncapped_frac": counters.get("uncapped", 0) / seen if seen else 0.0,
        "simulate.extinct_frac": counters.get("extinct", 0) / seen if seen else 0.0,
        "estimators.bytes_copied_computed": counters.get("bytes_copied", 0),
        "harness.report_bytes": counters.get("report_bytes", 0),
        "harness.self_s": get("harness.run_experiment", "self_s"),
        "exact_moments.self_s": get("exact_moments", "self_s"),
        "rates.self_s": get("rates", "self_s"),
        "simulate.batch_io.self_s": get("simulate.batch_io", "self_s"),
        "harness.write_outputs.self_s": get("harness.write_outputs", "self_s"),
        "trace.wall_s": get("bench.timed", "total_s"),
    }
    for name in ("environment.sample_path", "simulate.run", "estimators.lp_norm",
                 "estimators.w_moment", "estimators.burkholder_sandwich",
                 "estimators.fit_decay", "simulate.increment_identity_check"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    attributed = sum(v["self_s"] for k, v in layers.items() if k != "bench.timed")
    out["trace.accounted_frac"] = attributed / out["trace.wall_s"]
    return out


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Samples:
    """The repetitions of one run, and the operations their outputs were judged by."""

    def __init__(self):
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.digests: list[str] = []
        self.attempted = self.failed = self.statistical_misses = 0

    def miss(self, what: str) -> None:
        self.failed += 1
        print(f"miss: {what}", flush=True)

    def add(self, res: dict, traced: bool) -> None:
        self.attempted += res["attempted"]
        for what in res["misses"]:
            self.miss(what)
        self.statistical_misses += res.get("statistical_misses", 0)
        if "digest" in res:
            self.digests.append(res["digest"])
        (self.traced if traced else self.untraced).append(res)

    def crashed(self, exc: ChildFailed) -> None:
        self.attempted += 1
        self.miss(str(exc))

    def compare_digests(self) -> None:
        """Every repetition of a run has the same seed, so the same report."""
        for digest in self.digests[1:]:
            self.attempted += 1
            if digest != self.digests[0]:
                self.miss(f"report digest {digest} differs from {self.digests[0]}")


def set_up(base: dict, samples: int) -> tuple[list[float], int]:
    """Set-up times of `samples` fresh processes (more while under SETUP_SECONDS)."""
    # the warm-up compiles bytecode and fills the page cache; it writes no input
    spawn({**base, "mode": "setup", "write_input": False}, timeout=HARD_LIMIT_S)
    setups = []
    began = time.perf_counter()
    while len(setups) < samples or samples > 1 and time.perf_counter() - began < SETUP_SECONDS:
        res = spawn({**base, "mode": "setup", "write_input": True}, timeout=HARD_LIMIT_S)
        setups.append(res["ready"] - res["spawned"])
    return setups, res["seed"]


def repeat(base: dict, seconds: float, trace: bool, began: float) -> Samples:
    """Repetitions until `seconds` have passed, at least MIN_REPS (one pair if traced)."""
    samples = Samples()
    kinds = (False, True) if trace else (False,)
    slowest = 0.0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < (1 if trace else MIN_REPS) or time.perf_counter() < deadline:
        if rounds and time.perf_counter() - began + slowest * len(kinds) > HARD_LIMIT_S:
            break
        rounds += 1
        for traced in kinds:
            spec = {**base, "mode": "rep", "trace": traced,
                    "thread_probe": traced and not samples.traced}
            t = time.perf_counter()
            try:
                res = spawn(spec, timeout=max(HARD_LIMIT_S - (t - began), 10.0))
            except ChildFailed as exc:
                samples.crashed(exc)
                continue
            slowest = max(slowest, time.perf_counter() - t)
            samples.add(res, traced)
    samples.compare_digests()
    return samples


def end_to_end(workload: str, samples: Samples, setups: list[float]) -> dict[str, float]:
    wall = median([r["wall_s"] for r in samples.untraced])
    return {
        "wall_s": wall,
        "setup_s": median(setups),
        "peak_rss_mb": median([r["rss_kb"] / 1024 for r in samples.untraced]),
        "replica_gens_per_s": WORK[workload] / wall,
    }


def per_layer(samples: Samples) -> dict[str, float]:
    per_rep = [layer_metrics(r) for r in samples.traced]
    values = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
    values["trace.overhead_s"] = (median([r["wall_s"] for r in samples.traced])
                                  - median([r["wall_s"] for r in samples.untraced]))
    values["simulate.thread_speedup"] = samples.traced[0]["thread_speedup"]
    return values


def measure(workload: str, seed: int | None, seconds: float, trace: bool) -> int:
    out_dir = ROOT / ".bench_out" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    began = time.perf_counter()
    meta = run_metadata(seed)
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "out_dir": str(out_dir)}
    setups, meta["seed"] = set_up(base, 1 if trace else SETUP_SAMPLES)
    base["seed"] = meta["seed"]
    print("meta: " + json.dumps(meta), flush=True)
    samples = repeat(base, seconds, trace, began)
    (out_dir / "batch.npz").unlink(missing_ok=True)
    if not samples.untraced or trace and not samples.traced:
        print("bench: no repetition completed", file=sys.stderr)
        return 1

    if trace:
        values, n, units = per_layer(samples), len(samples.traced), declared_units("per_layer")
    else:
        values, n = end_to_end(workload, samples, setups), len(samples.untraced)
        units = declared_units("end_to_end")
    if set(values) != set(units):
        raise ValueError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(f"digest: {samples.digests[0] if samples.digests else None}")
    print(f"statistical_misses: {samples.statistical_misses} "
          f"(program Monte Carlo checks that missed; the gate judges them itself)")
    for name, m in metrics.items():
        count = len(setups) if name == "setup_s" else n
        print(f"{workload:<13} {name:<42} {m['value']:>14.6g} {m['unit']:<6} n={count}")
    walls = " ".join(f"{r['wall_s']:.4g}" for r in samples.untraced)
    print(f"{workload:<13} {'wall_s.samples':<42} {walls} s")
    print(f"{workload:<13} {'ops_failed_frac':<42} "
          f"{samples.failed / samples.attempted:>14.6g} ({samples.failed}/{samples.attempted})")
    print(json.dumps({"correct": samples.failed == 0, "attempted": samples.attempted,
                      "failed": samples.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so subprocess.run kills
    # the child it is waiting for instead of leaving it running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"bench: not a bprelab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
