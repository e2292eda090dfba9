"""The benchmark's workloads, their correctness oracles and their trace points.

Runs inside a fresh interpreter started by child.py, with the checkout's
`src` on sys.path. Two workloads call `bprelab run` on a bundled config;
`batch-reduce` generates a trajectory batch with its own numpy code and
times the estimators over it, so the simulator is bypassed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bprelab import cli, estimators, exact_moments, harness, rates, simulate
from bprelab.config import load_config
from bprelab.environment import FixedPath, IIDMixture

from spans import Tracer

CI_Z = 1.96
# The program's Monte Carlo agreement checks compare an estimate with its
# exact or predicted value at 4 standard errors, or ask a 95% interval to
# hold it. Their standard errors come from 30 batch means, so the z-scores
# are t-distributed with 29 degrees of freedom, and skewed: a correct
# program misses one of these checks on a few seeds in a hundred (two-state
# seed 1477635223 has annealed p=2 z = -4.05 at n=1; gw-binary seed 4 and
# two-state seed 12 miss their 95% intervals). Their misses are reported as
# statistical misses, and the benchmark judges the same comparisons itself
# at GATE_SIGMAS, which a t(29) deviate exceeds on about 1e-7 of comparisons.
STATISTICAL_CHECKS = (".estimates-match-exact", ".fit-matches-exact", ".ci-contains-predicted")
GATE_SIGMAS = 7.0
REL_TOL = 1e-12
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class RunWorkload:
    """`bprelab run <config> --threads <threads> --seed <seed>`."""

    config: str
    threads: int
    checks: int
    predicted_rate: float | None = None


RUN_WORKLOADS = {
    # simulator-bound, single thread, largest arrays (w 24 MB, a_hat 72 MB)
    "gw-binary": RunWorkload("configs/gw_binary.cfg", 1, 35, math.sqrt(1.5)),
    # random environment, four batches, every suite, the only thread-pool user
    "two-state": RunWorkload("configs/two_state.cfg", 2, 54),
}

# batch-reduce: the binary law Z_{n+1} = 2 Binomial(Z_n, 3/4), mean 3/2
BATCH_CONFIG = "configs/gw_binary.cfg"
BATCH_REPLICAS = 100_000
BATCH_N_MAX = 30
BATCH_POP_CAP = 10_000_000
SURVIVE = 0.75
MEAN = 1.5
BINARY_LAW = [({0: 1 - SURVIVE, 2: SURVIVE}, 1.0)]
SWEEP_P = (1.5, 2.0, 3.0)
SWEEP_GAPS = (10, 20)
# gw_binary.cfg's gap; at gap 10 the proxy bias bound leaves fit_decay no window
FIT_GAP = 20
PROBE_NS = (2, 14, 29)
IDENTITY_NS = (1, 15, 28)
ORACLE_SAMPLES = 12

THREAD_PROBE_CONFIG = "configs/two_state.cfg"


def config_path(root: Path, workload: str) -> Path:
    rel = RUN_WORKLOADS[workload].config if workload in RUN_WORKLOADS else BATCH_CONFIG
    return root / rel


def rho_grid(critical: float) -> tuple[float, ...]:
    """Three spread points of a 20-point geometric grid on [1.01, 1.2 critical]."""
    grid = np.geomspace(1.01, max(1.2 * critical, 1.02), 20)
    return (float(grid[0]), float(grid[10]), float(grid[-1]))


# ---------------------------------------------------------------------------
# batch-reduce input


def make_binary_batch(seed: int, replicas: int = BATCH_REPLICAS,
                      n_max: int = BATCH_N_MAX) -> simulate.TrajectoryBatch:
    """A binary-law annealed batch drawn generation by generation with numpy."""
    rng = np.random.default_rng(seed)
    grid = rho_grid(math.sqrt(MEAN))
    z = np.ones(replicas, dtype=np.int64)
    w = np.empty((replicas, n_max + 1))
    w[:, 0] = 1.0
    status = np.full(replicas, simulate.STATUS_COMPLETED, dtype=np.int8)
    status_gen = np.full(replicas, -1, dtype=np.int32)
    active = np.ones(replicas, dtype=bool)
    for n in range(n_max):
        z = np.where(active, 2 * rng.binomial(z, SURVIVE), z)
        w[:, n + 1] = np.where(active, z / MEAN ** (n + 1), w[:, n])
        died = active & (z == 0)
        capped = active & (z > BATCH_POP_CAP)
        status[died] = simulate.STATUS_EXTINCT
        status[capped] = simulate.STATUS_CAPPED
        status_gen[died | capped] = n + 1
        active &= ~(died | capped)
    rho_pows = np.array([[r**k for k in range(n_max)] for r in grid])
    a_hat = np.cumsum(rho_pows[None, :, :] * np.diff(w, axis=1)[:, None, :], axis=2)
    return simulate.TrajectoryBatch(
        mode=simulate.MODE_ANNEALED,
        n_max=n_max,
        replicas=replicas,
        master_seed=seed,
        pop_cap=BATCH_POP_CAP,
        rho_grid=grid,
        w=w,
        a_hat=a_hat,
        status=status,
        status_gen=status_gen,
    )


def batch_file(out_dir: Path) -> Path:
    return out_dir / "batch.npz"


def resolve_seed(root: Path, workload: str, seed: int | None) -> int:
    """The workload seed: the one given, else the config's own master_seed."""
    cfg = load_config(config_path(root, workload))
    return cfg.master_seed if seed is None else seed


def write_input(workload: str, seed: int, out_dir: Path) -> None:
    """batch-reduce's input batch; the run workloads read only their config."""
    if workload not in RUN_WORKLOADS:
        make_binary_batch(seed).save(batch_file(out_dir))


# ---------------------------------------------------------------------------
# timed bodies


def run_cli(root: Path, workload: str, seed: int, out_dir: Path) -> dict:
    spec = RUN_WORKLOADS[workload]
    argv = ["run", str(root / spec.config), "--threads", str(spec.threads),
            "--seed", str(seed), "--out", str(out_dir)]
    with open(out_dir / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(argv)
    return {"exit_code": code}


def reduce_sweep(out_dir: Path) -> dict:
    """Load the batch and run every estimator over it."""
    batch = simulate.TrajectoryBatch.load(batch_file(out_dir))
    n_max = batch.n_max
    lp = {}
    fits = {}
    for p in SWEEP_P:
        for gap in SWEEP_GAPS:
            ests = [estimators.lp_norm(batch, p, n, gap) for n in range(n_max - gap + 1)]
            lp.update({(p, gap, e.n): e for e in ests})
            if gap == FIT_GAP:
                fits[p] = estimators.fit_decay(ests)
    moments = {(p, n): estimators.w_moment(batch, p, n)
               for p in SWEEP_P for n in range(n_max + 1)}
    sandwiches = [estimators.burkholder_sandwich(batch, p, rho, n)
                  for p in SWEEP_P for rho in batch.rho_grid for n in PROBE_NS]
    residuals = [simulate.increment_identity_check(batch, rho, n)
                 for rho in batch.rho_grid for n in IDENTITY_NS]
    return {"batch": batch, "lp": lp, "fits": fits, "moments": moments,
            "sandwiches": sandwiches, "residuals": residuals}


def timed_body(root: Path, workload: str, seed: int, out_dir: Path) -> dict:
    if workload in RUN_WORKLOADS:
        return run_cli(root, workload, seed, out_dir)
    return reduce_sweep(out_dir)


# ---------------------------------------------------------------------------
# correctness


class Tally:
    """Operations attempted and the ones that failed, with a reason each."""

    def __init__(self):
        self.attempted = 0
        self.misses: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.misses.append(what)


def report_digest(out_dir: Path) -> str:
    """sha256 of report.json without its timings, then every CSV in name order."""
    report = json.loads((out_dir / "report.json").read_text())
    report.pop("timings", None)
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for csv in sorted(out_dir.glob("*.csv")):
        h.update(csv.name.encode())
        h.update(csv.read_bytes())
    return h.hexdigest()


def _log_rate_z(fit_ci: list[float], rate: float) -> float:
    """How many standard errors `rate` sits from a fit, in log-rate units.

    The program's interval is exp(-(slope -/+ 1.96 se)), so its log-midpoint
    is the fitted log rate and its log half-width is 1.96 se.
    """
    lo, hi = (math.log(x) for x in fit_ci)
    return abs(math.log(rate) - (lo + hi) / 2) / ((hi - lo) / (2 * CI_Z))


def config_laws(root: Path, workload: str) -> list[tuple[dict, float]]:
    """The workload's environment states as (offspring law, weight) pairs."""
    env = load_config(config_path(root, workload)).env
    return [(law.as_mapping(), float(w)) for law, w in zip(env.states, env.weights)]


def annealed_p2_distance(laws: list[tuple[dict, float]], n: int, gap: int) -> float:
    """E|W_{n+g} - W_n|^2 in an i.i.d. environment: b2 (q1^n + ... + q1^(n+g-1)).

    Given the environment, the increment W_{k+1} - W_k has second moment
    Var(xi_k) / (m_k^2 P_k); averaged over i.i.d. states that is b2 q1^k with
    q1 = E[1/m] and b2 = E[Var(xi) / m^2], and the increments are orthogonal.
    """
    q1 = b2 = 0.0
    for law, weight in laws:
        mean = sum(k * pk for k, pk in law.items())
        var = sum(k * k * pk for k, pk in law.items()) - mean**2
        q1 += weight / mean
        b2 += weight * var / mean**2
    return b2 * math.fsum(q1**k for k in range(n, n + gap))


def _suite_fit(report: dict, check_id: str) -> dict | None:
    """The fit behind a rate suite's check id, `<suite>.p<p>.<name>`."""
    suite, rest = check_id.split(".", 1)
    p = float(rest[1:rest.rindex(".")])
    for per_p in report["suites"][suite]["per_p"]:
        if per_p["p"] == p:
            return per_p.get("fit")
    return None


def judge_run(root: Path, workload: str, out_dir: Path, result: dict, tally: Tally) -> int:
    """Judge a `bprelab run` report; returns how many statistical checks missed."""
    spec = RUN_WORKLOADS[workload]
    report_path = out_dir / "report.json"
    if not report_path.exists():
        tally.op(False, f"no report.json written, exit code {result['exit_code']}")
        return 0
    report = json.loads(report_path.read_text())
    checks = report["checks"]
    tally.op(len(checks) == spec.checks, f"{len(checks)} checks, expected {spec.checks}")
    ids = [c["id"] for c in checks]
    tally.op(len(set(ids)) == len(ids), "duplicate check ids")
    want_code = 0 if all(c["passed"] for c in checks) else 2
    tally.op(result["exit_code"] == want_code,
             f"exit code {result['exit_code']}, verdicts say {want_code}")
    statistical_misses = 0
    for check in checks:
        cid, observed = check["id"], check["observed"]
        if not cid.endswith(STATISTICAL_CHECKS):
            tally.op(check["passed"], f"check {cid} failed")
            continue
        statistical_misses += not check["passed"]
        if cid.endswith(".fit-matches-exact"):
            fit = _suite_fit(report, cid)
            tally.op(fit is not None, f"{cid}: no fit in the report")
            if fit is not None:
                z = _log_rate_z([fit["ci_low"], fit["ci_high"]], observed["exact_rho"])
                tally.op(z <= GATE_SIGMAS, f"{cid}: exact rate is {z:.2f} sigma from the fit")
        elif cid.endswith(".ci-contains-predicted"):
            predicted = observed["predicted"]
            if spec.predicted_rate is not None and cid.startswith("annealed-rate.p2."):
                tally.op(_rel_close(predicted, spec.predicted_rate),
                         f"{cid} predicts {predicted}, not {spec.predicted_rate}")
                predicted = spec.predicted_rate
            z = _log_rate_z(observed["ci"], predicted)
            tally.op(z <= GATE_SIGMAS, f"{cid}: {predicted} is {z:.2f} sigma from the fit")
    judge_annealed_p2(root, workload, out_dir, tally)
    return statistical_misses


def judge_annealed_p2(root: Path, workload: str, out_dir: Path, tally: Tally) -> None:
    """The annealed p=2 distances against the benchmark's own closed form."""
    laws = config_laws(root, workload)
    gap = load_config(config_path(root, workload)).gap
    rows = (out_dir / "annealed_rate_p2.csv").read_text().splitlines()[1:]
    tally.op(len(rows) > 0, "annealed_rate_p2.csv has no estimates")
    for row in rows:
        _, n, value, stderr = row.split(",")
        exact = annealed_p2_distance(laws, int(n), gap)
        z = abs(float(value) - exact) / float(stderr)
        tally.op(z <= GATE_SIGMAS,
                 f"annealed p=2 distance n={n}: {value} is {z:.2f} sigma from exact {exact}")


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def judge_sweep(seed: int, result: dict, tally: Tally) -> None:
    batch = result["batch"]
    wu = batch.w[batch.status != simulate.STATUS_CAPPED]
    pick = np.random.default_rng(seed)
    lp_keys = list(result["lp"])
    for i in pick.choice(len(lp_keys), ORACLE_SAMPLES, replace=False):
        p, gap, n = lp_keys[i]
        want = float(np.mean(np.abs(wu[:, n + gap] - wu[:, n]) ** p))
        tally.op(_rel_close(result["lp"][lp_keys[i]].value, want),
                 f"lp_norm p={p} gap={gap} n={n} differs from numpy")
    m_keys = list(result["moments"])
    for i in pick.choice(len(m_keys), ORACLE_SAMPLES, replace=False):
        p, n = m_keys[i]
        want = float(np.mean(wu[:, n] ** p))
        tally.op(_rel_close(result["moments"][m_keys[i]].value, want),
                 f"w_moment p={p} n={n} differs from numpy")
    for (p, gap, n), est in result["lp"].items():
        if p == 2.0:
            exact = annealed_p2_distance(BINARY_LAW, n, gap)
            tally.op(abs(est.value - exact) <= GATE_SIGMAS * est.stderr,
                     f"p=2 distance n={n} gap={gap}: {est.value} vs exact {exact}")
    rate = math.log(math.sqrt(MEAN))
    fit = result["fits"][2.0]
    tally.op(abs(-fit.slope - rate) <= GATE_SIGMAS * fit.slope_se,
             f"p=2 fitted rate {fit.fitted_rho} vs {math.sqrt(MEAN)}")
    for sc in result["sandwiches"]:
        tally.op(sc.ok, f"sandwich p={sc.p} rho={sc.rho} n={sc.n} outside its bracket")
    for r in result["residuals"]:
        tally.op(r <= IDENTITY_TOL, f"identity residual {r}")


# ---------------------------------------------------------------------------
# tracing


def _copied_bytes(batch: simulate.TrajectoryBatch, columns: int) -> int:
    """Bytes of an uncapped-rows copy `columns` float64 wide (computed, not measured)."""
    return int(batch.uncapped.sum()) * columns * batch.w.itemsize


def install_trace(tracer: Tracer) -> None:
    """Wrap every layer where its caller binds it."""
    def count_batch(batch, simulated: bool) -> None:
        tracer.count("batch_replicas", batch.replicas)
        tracer.count("uncapped", int(batch.uncapped.sum()))
        tracer.count("extinct", int((batch.status == simulate.STATUS_EXTINCT).sum()))
        if simulated:
            tracer.count("sim_replicas", batch.replicas)
            tracer.count("sim_replica_gens", batch.replicas * batch.n_max)

    def on_run(args, kwargs, batch):
        count_batch(batch, simulated=True)

    def on_load(args, kwargs, batch):
        count_batch(batch, simulated=False)

    def on_row_copy(args, kwargs, _):
        tracer.count("bytes_copied", _copied_bytes(args[0], args[0].n_max + 1))

    def on_sandwich(args, kwargs, sc):
        # a_hat[mask, j, n] plus w[mask, :n+2]
        tracer.count("bytes_copied", _copied_bytes(args[0], sc.n + 3))

    def on_write(args, kwargs, report_path):
        written = [report_path, *(report_path.parent / name for name in args[1])]
        tracer.count("report_bytes", sum(f.stat().st_size for f in written))

    tracer.wrap(cli, "run_experiment", "harness.run_experiment")
    tracer.wrap(cli, "write_outputs", "harness.write_outputs", on_write)
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(harness, "run", "simulate.run", on_run)
    for mod in (harness, estimators):
        tracer.wrap(mod, "lp_norm", "estimators.lp_norm", on_row_copy)
        tracer.wrap(mod, "fit_decay", "estimators.fit_decay")
    tracer.wrap(estimators, "w_moment", "estimators.w_moment", on_row_copy)
    tracer.wrap(estimators, "burkholder_sandwich", "estimators.burkholder_sandwich", on_sandwich)
    for mod in (harness, simulate):
        tracer.wrap(mod, "increment_identity_check", "simulate.increment_identity_check")
    tracer.wrap(simulate.TrajectoryBatch, "save", "simulate.batch_io")
    tracer.wrap(simulate.TrajectoryBatch, "load", "simulate.batch_io", on_load)
    for cls in (IIDMixture, FixedPath):
        tracer.wrap(cls, "sample_path", "environment.sample_path")
    for name in ("annealed_u", "p2_closed_forms", "growth_envelope_check",
                 "recursion_inequality_slacks", "quenched_moments", "quenched_p2_tail",
                 "annealed_moment_table", "quenched_increment_second_moments"):
        tracer.wrap(exact_moments, name, "exact_moments")
    for name in ("rate_report", "annealed_lp_criterion", "annealed_critical_conditions",
                 "series_diagnostic", "default_rho_grid"):
        tracer.wrap(rates, name, "rates")


def thread_speedup(root: Path, seed: int) -> float:
    """Wall time of the annealed two-state batch at one thread over two threads."""
    cfg = load_config(root / THREAD_PROBE_CONFIG)
    sim = simulate.SimConfig(
        env=cfg.env, mode=simulate.MODE_ANNEALED, n_max=cfg.n_max,
        replicas=cfg.replicas, master_seed=seed, path_seed=cfg.path_seed,
        pop_cap=cfg.pop_cap, rho_grid=rho_grid(math.sqrt(cfg.env.geo_mean())),
    )
    elapsed = []
    for threads in (1, 2):
        t0 = time.perf_counter()
        simulate.run(sim, threads=threads)
        elapsed.append(time.perf_counter() - t0)
    return elapsed[0] / elapsed[1]
