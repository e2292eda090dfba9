"""Trajectory engine: reproducibility, statuses, dumps, the A/A-hat identity."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from bprelab import (
    EnvPath,
    FixedPath,
    IIDMixture,
    OffspringLaw,
    ParameterError,
    SimConfig,
    SimulationError,
    TrajectoryBatch,
    increment_identity_check,
    run,
)
from bprelab import simulate
from bprelab.simulate import (
    BLOCK_ROWS,
    STATUS_CAPPED,
    STATUS_COMPLETED,
    STATUS_EXTINCT,
    STREAM_SCHEME,
    _law_table,
    _simulate_block,
    identity_residuals,
    increment_sums,
    sums_at,
)

GW_PMF = {0: 0.25, 2: 0.75}
GW_ENV = IIDMixture([OffspringLaw(GW_PMF)], [1.0])
M23 = IIDMixture([OffspringLaw({2: 1.0}), OffspringLaw({3: 1.0})], [0.5, 0.5])


def small_cfg(**overrides):
    base = dict(
        env=GW_ENV, mode="annealed", n_max=12, replicas=500, master_seed=17,
        rho_grid=(1.2,),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_mode_validation(self):
        with pytest.raises(ParameterError, match="mode"):
            small_cfg(mode="frozen")

    def test_numeric_validation(self):
        with pytest.raises(ParameterError):
            small_cfg(n_max=0)
        with pytest.raises(ParameterError):
            small_cfg(replicas=0)
        with pytest.raises(ParameterError, match="pop_cap"):
            small_cfg(pop_cap=10)
        with pytest.raises(ParameterError, match="rho"):
            small_cfg(rho_grid=(0.5,))

    def test_annealed_needs_mixture(self):
        with pytest.raises(ParameterError, match="mixture"):
            small_cfg(env=FixedPath([OffspringLaw(GW_PMF)] * 12))

    def test_quenched_mixture_needs_path_seed(self):
        with pytest.raises(ParameterError, match="path_seed"):
            small_cfg(mode="quenched")
        small_cfg(mode="quenched", path_seed=3)  # fine

    def test_pop_cap_overflow_guard(self):
        with pytest.raises(ParameterError, match="int64"):
            small_cfg(pop_cap=2**62)

    def test_replica_seeds_are_spawned_streams(self):
        # one stream per block of BLOCK_ROWS replicas, keyed by the block index
        cfg = small_cfg()
        assert cfg.block_seed(4).spawn_key == (4,)
        assert cfg.block_seed(4).entropy == 17


def row_by_row_reference(cfg):
    """The block scheme replayed one replica at a time, as a plain loop.

    Each block's stream first draws every row's states, then one multinomial
    per live row and generation, over the sorted union support of the laws.
    """
    laws = cfg.env.states
    support = sorted({v for law in laws for v in law.as_mapping()})
    padded = [[law.as_mapping().get(v, 0.0) for v in support] for law in laws]
    w = np.zeros((cfg.replicas, cfg.n_max + 1))
    status = np.full(cfg.replicas, STATUS_COMPLETED)
    status_gen = np.full(cfg.replicas, -1)
    for block, lo in enumerate(range(0, cfg.replicas, BLOCK_ROWS)):
        rows = range(lo, min(lo + BLOCK_ROWS, cfg.replicas))
        rng = np.random.default_rng(cfg.block_seed(block))
        states = rng.choice(len(laws), size=(len(rows), cfg.n_max), p=cfg.env.weights)
        z = dict.fromkeys(rows, 1)
        log_p = dict.fromkeys(rows, 0.0)
        w[lo : rows.stop, 0] = 1.0
        for n in range(cfg.n_max):
            for i in rows:
                w[i, n + 1] = w[i, n]
                if status[i] != STATUS_COMPLETED:
                    continue
                state = states[i - lo, n]
                z[i] = int(rng.multinomial(z[i], padded[state]) @ support)
                log_p[i] += laws[state].log_mean
                w[i, n + 1] = z[i] * math.exp(-log_p[i])
                if z[i] == 0 or z[i] > cfg.pop_cap:
                    status[i] = STATUS_EXTINCT if z[i] == 0 else STATUS_CAPPED
                    status_gen[i] = n + 1
    return w, status, status_gen


class TestDeterminism:
    def test_matches_row_by_row_reference(self):
        # two blocks, two laws on different supports, extinction and capping
        env = IIDMixture([OffspringLaw(GW_PMF), OffspringLaw({1: 0.2, 4: 0.8})], [0.6, 0.4])
        cfg = small_cfg(env=env, n_max=10, replicas=BLOCK_ROWS + 300, pop_cap=1000)
        batch = run(cfg)
        w, status, status_gen = row_by_row_reference(cfg)
        assert {STATUS_EXTINCT, STATUS_CAPPED, STATUS_COMPLETED} <= set(status.tolist())
        assert np.array_equal(batch.status, status)
        assert np.array_equal(batch.status_gen, status_gen)
        # the engine's exp/cumsum of log P_n may differ from math.exp in the last bits
        assert np.allclose(batch.w, w, rtol=1e-14, atol=0)

    def test_same_config_bitwise_identical(self):
        a = run(small_cfg())
        b = run(small_cfg())
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.a_hat, b.a_hat)
        assert np.array_equal(a.status, b.status)

    def test_thread_count_does_not_change_results(self):
        a = run(small_cfg(), threads=1)
        b = run(small_cfg(), threads=4)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.a_hat, b.a_hat)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.status_gen, b.status_gen)

    def test_threads_validated(self):
        with pytest.raises(ParameterError):
            run(small_cfg(), threads=0)

    def test_quenched_path_is_shared_and_seeded(self):
        cfg = small_cfg(env=M23, mode="quenched", path_seed=11)
        batch = run(cfg)
        assert batch.path is not None
        assert batch.path.seed == 11
        assert len(batch.path) == cfg.n_max
        again = run(cfg)
        assert again.path.laws == batch.path.laws

    def test_fixed_path_prefix_used_verbatim(self):
        laws = tuple(OffspringLaw(q) for q in ([GW_PMF, {3: 1.0}] * 6))
        batch = run(small_cfg(env=FixedPath(laws), mode="quenched"))
        assert batch.path.laws == laws[:12]


class TestTrajectories:
    def test_w_starts_at_one_and_scales_by_mean_products(self, gw_batch):
        assert np.all(gw_batch.w[:, 0] == 1.0)
        # Z_1 is 0 or 2, so W_1 must be 0 or 2/1.5 exactly
        w1 = np.unique(gw_batch.w[:, 1])
        assert set(np.round(w1, 12)) <= {0.0, round(2 / 1.5, 12)}

    def test_extinct_rows_freeze_at_zero(self, gw_batch):
        extinct = np.where(gw_batch.status == STATUS_EXTINCT)[0]
        assert extinct.size > 0
        for i in extinct[:20]:
            g = gw_batch.status_gen[i]
            assert g >= 1
            assert np.all(gw_batch.w[i, g:] == 0.0)
            assert gw_batch.w[i, g - 1] > 0.0
        assert np.all(gw_batch.status_gen[extinct] >= 1)

    def test_completed_rows_have_no_status_generation(self, gw_batch):
        done = gw_batch.status == STATUS_COMPLETED
        assert np.all(gw_batch.status_gen[done] == -1)
        assert done.any()

    def test_extinction_fraction_matches_fixed_point(self, gw_batch):
        # extinction probability solves s = 1/4 + (3/4) s^2, i.e. s = 1/3;
        # by n = 25 the finite-horizon gap is ~0.5^25
        truth = oracles.extinction_probability(GW_PMF)
        assert truth == pytest.approx(1 / 3, abs=1e-10)
        sigma = math.sqrt(truth * (1 - truth) / gw_batch.replicas)
        assert abs(np.mean(gw_batch.status == STATUS_EXTINCT) - truth) < 4 * sigma

    def test_capping_freezes_at_the_cap_generation(self):
        # deterministic quadrupling crosses pop_cap = 1000 at generation 5
        env = IIDMixture([OffspringLaw({4: 1.0})], [1.0])
        batch = run(small_cfg(env=env, pop_cap=1000, replicas=8))
        assert np.all(batch.status == STATUS_CAPPED)
        assert np.all(batch.status_gen == 5)
        assert batch.capped_fraction == 1.0
        for i in range(8):
            assert np.all(batch.w[i, 5:] == batch.w[i, 5])
        assert np.array_equal(batch.uncapped, np.zeros(8, dtype=bool))

    def test_martingale_mean_stays_at_one(self, gw_batch):
        w = gw_batch.w[gw_batch.uncapped]
        for n in (5, 20):
            se = w[:, n].std(ddof=1) / math.sqrt(len(w))
            assert abs(w[:, n].mean() - 1.0) < 4 * se

    def test_a_hat_matches_direct_recomputation(self, gw_batch):
        j = gw_batch.rho_grid.index(1.1)
        k = np.arange(gw_batch.n_max)
        direct = np.cumsum(1.1**k * np.diff(gw_batch.w, axis=1), axis=1)
        # the engine builds its power table with scalar pow, which can sit
        # 1 ulp away from the vectorized one; this is a definition check
        assert np.allclose(gw_batch.a_hat[:, j, :], direct, rtol=1e-12, atol=1e-12)


# Chi-square test of the simulated Z_n law against the exact Fraction law of
# tests/oracles.py; the level, the cell rule and the seeds are fixed in advance.
CHI2_ALPHA = 1e-3
CHI2_MIN_EXPECTED = 5.0
CHI2_REPLICAS = 20_000
CHI2_N_MAX = 4
PATH_PMFS = [{0: 0.25, 2: 0.75}, {1: 0.5, 3: 0.5}, {0: 0.2, 1: 0.3, 3: 0.5}, {2: 1.0}]
MEAN_TWO_PMFS = [{1: 0.5, 3: 0.5}, {2: 1.0}]


def chi2_sf(x, df):
    """P(chi^2_df > x) for an integer df, in closed form."""
    if df % 2 == 0:
        term = total = 1.0
        for i in range(1, df // 2):
            term *= x / (2 * i)
            total += term
        return math.exp(-x / 2) * total
    tail = math.erfc(math.sqrt(x / 2))
    term = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    for k in range((df - 1) // 2):
        tail += term
        term *= x / (2 * k + 3)
    return tail


def chi2_pvalue(sample, law):
    """Pearson p-value of integer draws against an exact {value: Fraction} law.

    Atoms expected fewer than CHI2_MIN_EXPECTED times are pooled into one
    cell, which joins the smallest other cell if it is itself too small.
    """
    values, counts = np.unique(sample, return_counts=True)
    assert set(values.tolist()) <= set(law), "a value the exact law cannot produce"
    observed = dict(zip(values.tolist(), counts.tolist()))
    cells = []
    pooled = [0.0, 0.0]
    for z, pz in sorted(law.items()):
        cell = [observed.get(z, 0), float(pz) * len(sample)]
        if cell[1] >= CHI2_MIN_EXPECTED:
            cells.append(cell)
        else:
            pooled = [pooled[0] + cell[0], pooled[1] + cell[1]]
    if pooled[1] >= CHI2_MIN_EXPECTED:
        cells.append(pooled)
    elif pooled[1] > 0:
        smallest = min(cells, key=lambda c: c[1])
        smallest[0] += pooled[0]
        smallest[1] += pooled[1]
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return chi2_sf(stat, len(cells) - 1)


def test_chi2_sf_known_quantiles():
    # upper 5% points of chi^2 with 1..6 degrees of freedom
    for df, q in enumerate((3.841459, 5.991465, 7.814728, 9.487729, 11.070498, 12.591587), 1):
        assert chi2_sf(q, df) == pytest.approx(0.05, abs=1e-6)


class TestGenerationLawOracle:
    def test_quenched_fixed_path(self):
        env = FixedPath([OffspringLaw(q) for q in PATH_PMFS])
        batch = run(small_cfg(env=env, mode="quenched", n_max=CHI2_N_MAX,
                              replicas=CHI2_REPLICAS, master_seed=31))
        exact = oracles.generation_distributions(PATH_PMFS, CHI2_N_MAX)
        for n in range(1, CHI2_N_MAX + 1):
            z = batch.w[:, n] * math.exp(batch.path.log_means[n])
            assert np.allclose(z, np.rint(z), rtol=0, atol=1e-6)
            pvalue = chi2_pvalue(np.rint(z).astype(np.int64), exact[n])
            assert pvalue > CHI2_ALPHA, (n, pvalue)

    def test_annealed_mean_two_mixture(self):
        # both states have mean 2, so P_n = 2^n on every path and Z_n = 2^n W_n
        env = IIDMixture([OffspringLaw(q) for q in MEAN_TWO_PMFS], [0.5, 0.5])
        batch = run(small_cfg(env=env, n_max=CHI2_N_MAX, replicas=CHI2_REPLICAS,
                              master_seed=37))
        exact = oracles.annealed_generation_distributions(MEAN_TWO_PMFS, [0.5, 0.5], CHI2_N_MAX)
        for n in range(1, CHI2_N_MAX + 1):
            z = batch.w[:, n] * 2**n
            assert np.allclose(z, np.rint(z), rtol=0, atol=1e-6)
            pvalue = chi2_pvalue(np.rint(z).astype(np.int64), exact[n])
            assert pvalue > CHI2_ALPHA, (n, pvalue)


class RecordingRng:
    """A generator that records the dimension of every pmf argument it is given."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.pmf_ndims = set()

    def multinomial(self, n, pvals):
        self.pmf_ndims.add(np.ndim(pvals))
        return self.rng.multinomial(n, pvals)


def simulate_block(rng, state, support, pvals, pinv, pop_cap):
    """_simulate_block on fresh outputs; returns (w, status, status_gen)."""
    rows, n_max = state.shape
    w = np.empty((rows, n_max + 1))
    w[:, 0] = 1.0
    status = np.full(rows, STATUS_COMPLETED, dtype=np.int8)
    status_gen = np.full(rows, -1, dtype=np.int32)
    _simulate_block(rng, state, support, pvals, pinv, pop_cap, w, status, status_gen)
    return w, status, status_gen


def assert_same_outputs(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestOnePmfPerGeneration:
    """When every row shares a law, its one pmf row draws what the per-row table draws."""

    def assert_same_draws(self, state, support, one_pvals, table_pvals):
        # a stride-0 state takes the one-pmf path, its contiguous copy the table path
        assert state.strides[0] == 0
        rows, n_max = state.shape
        pinv = np.broadcast_to(1.5 ** -np.arange(n_max + 1.0), (rows, n_max + 1))
        one, table = RecordingRng(41), RecordingRng(41)
        got = simulate_block(one, state, support, one_pvals, pinv, 60)
        want = simulate_block(table, np.ascontiguousarray(state), support, table_pvals, pinv, 60)
        assert (one.pmf_ndims, table.pmf_ndims) == ({1}, {2})
        assert_same_outputs(got, want)
        assert {STATUS_EXTINCT, STATUS_CAPPED} <= set(got[1].tolist())

    def test_quenched_path(self):
        support, pvals = _law_table([OffspringLaw(q) for q in PATH_PMFS])
        state = np.broadcast_to(np.arange(12) % len(pvals), (300, 12))
        self.assert_same_draws(state, support, pvals, pvals)

    def test_one_state_mixture(self):
        # an unused second law: the table holds more than the one law drawn
        support, pvals = _law_table([OffspringLaw(GW_PMF), OffspringLaw({1: 0.5, 3: 0.5})])
        state = np.broadcast_to(np.zeros(12, dtype=np.int64), (300, 12))
        self.assert_same_draws(state, support, pvals[:1], pvals)

    def test_the_block_streams_are_pcg64(self):
        # run skips a one-state mixture's choice call with advance, which counts PCG64 outputs
        assert isinstance(np.random.default_rng(0).bit_generator, np.random.PCG64)

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    def test_run_equals_the_per_row_table(self, mode):
        # run's shared path (one state row, one P_n row) against every row's own
        env = GW_ENV if mode == "annealed" else FixedPath([OffspringLaw(q) for q in PATH_PMFS * 3])
        cfg = small_cfg(env=env, mode=mode, replicas=BLOCK_ROWS + 7)
        batch = run(cfg)
        laws = GW_ENV.states if mode == "annealed" else batch.path.laws
        support, pvals = _law_table(laws)
        log_means = np.array([law.log_mean for law in laws])
        for block, lo in enumerate(range(0, cfg.replicas, BLOCK_ROWS)):
            rows = slice(lo, lo + BLOCK_ROWS)
            size = (len(batch.w[rows]), cfg.n_max)
            rng = np.random.default_rng(cfg.block_seed(block))
            if mode == "annealed":
                state = rng.choice(1, size=size, p=[1.0])
            else:
                state = np.tile(np.arange(cfg.n_max), (size[0], 1))
            log_p = np.zeros((size[0], cfg.n_max + 1))
            np.cumsum(log_means[state], axis=1, out=log_p[:, 1:])
            want = simulate_block(rng, state, support, pvals, np.exp(-log_p), cfg.pop_cap)
            assert_same_outputs((batch.w[rows], batch.status[rows], batch.status_gen[rows]), want)


TWO_LAWS = IIDMixture([OffspringLaw(GW_PMF), OffspringLaw({1: 0.2, 4: 0.8})], [0.6, 0.4])


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children run forks, recorded in the parent."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                    reason="forked workers need os.fork and os.sched_getaffinity")
class TestWorkers:
    """Blocks are dealt to forked workers; the worker count changes no output."""

    @pytest.mark.parametrize("cfg", [
        # four blocks, two laws, extinct and capped rows, a rho grid for a_hat
        small_cfg(env=TWO_LAWS, n_max=10, replicas=3 * BLOCK_ROWS + 5, pop_cap=1000,
                  rho_grid=(1.1, 1.3)),
        small_cfg(env=TWO_LAWS, mode="quenched", path_seed=3, replicas=2 * BLOCK_ROWS + 1),
        small_cfg(replicas=2 * BLOCK_ROWS + 3),
    ], ids=["annealed-two-laws", "quenched-mixture", "one-state-mixture"])
    def test_worker_count_changes_no_output(self, cfg, forks, monkeypatch):
        blocks = -(-cfg.replicas // BLOCK_ROWS)
        default = run(cfg)
        assert len(forks) == min(len(os.sched_getaffinity(0)), blocks) - 1
        forks.clear()
        set_cpus(monkeypatch, 1)
        one = run(cfg)
        assert forks == []
        # three workers for four or three blocks, on any number of cores
        set_cpus(monkeypatch, 3)
        three = run(cfg)
        assert len(forks) == 2
        assert_no_child_left()
        for batch in (default, one, three):
            assert batch.w.dtype == batch.a_hat.dtype == np.float64
            assert (batch.status.dtype, batch.status_gen.dtype) == (np.int8, np.int32)
            with pytest.raises(ValueError, match="read-only"):
                batch.w[0, 1] = 2.0
            for name in ("w", "status", "status_gen", "a_hat"):
                assert np.array_equal(getattr(batch, name), getattr(one, name)), name
        if cfg.mode == "annealed" and len(cfg.env.states) == 2:
            assert {STATUS_EXTINCT, STATUS_CAPPED, STATUS_COMPLETED} <= set(one.status.tolist())
            assert one.a_hat.shape == (cfg.replicas, 2, cfg.n_max)

    def test_children_neither_return_nor_flush_the_parents_stdio(self):
        # piped stdout is block-buffered: a child that flushed it, ran atexit
        # hooks or returned from run would print a line twice
        script = textwrap.dedent(f"""
            import atexit, os
            from bprelab import IIDMixture, OffspringLaw, SimConfig, run
            os.sched_getaffinity = lambda pid: {{0, 1, 2}}
            atexit.register(print, "atexit")
            print("before")
            run(SimConfig(env=IIDMixture([OffspringLaw({GW_PMF})], [1.0]), mode="annealed",
                          n_max=8, replicas={3 * BLOCK_ROWS}, master_seed=1))
            print("after")
        """)
        src = str(Path(simulate.__file__).parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["before", "after", "atexit"]

    def fail_in(self, monkeypatch, where):
        """Make _simulate_block raise in the parent ("parent") or in any forked child."""
        parent, real = os.getpid(), simulate._simulate_block

        def block(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise RuntimeError(f"block failed in the {where}")
            real(*args)

        monkeypatch.setattr(simulate, "_simulate_block", block)

    def test_a_failed_child_raises_after_every_child_is_reaped(self, forks, monkeypatch, capfd):
        set_cpus(monkeypatch, 3)
        self.fail_in(monkeypatch, "child")
        with pytest.raises(SimulationError, match=r"2 of 2 forked simulation workers failed"):
            run(small_cfg(replicas=3 * BLOCK_ROWS))
        assert len(forks) == 2
        assert_no_child_left()
        assert capfd.readouterr().err.count("RuntimeError: block failed in the child") == 2

    def test_a_failed_parent_share_still_reaps_every_child(self, forks, monkeypatch):
        set_cpus(monkeypatch, 3)
        self.fail_in(monkeypatch, "parent")
        with pytest.raises(RuntimeError, match="block failed in the parent"):
            run(small_cfg(replicas=3 * BLOCK_ROWS))
        assert len(forks) == 2
        assert_no_child_left()


def within(got, want, terms):
    """Per row, got and want differ by at most 1e-12 of the summed terms' magnitudes."""
    return np.all(np.abs(got - want) <= 1e-12 * np.abs(terms).sum(axis=1))


class TestLawTable:
    def test_support_is_the_sorted_union(self):
        laws = [OffspringLaw({0: 0.25, 2: 0.75}), OffspringLaw({1: 0.2, 2: 0.3, 4: 0.5}),
                OffspringLaw({2: 1.0}), OffspringLaw({7: 0.5, 0: 0.5})]
        support, pvals = _law_table(laws)
        want = np.unique(np.concatenate([law.values for law in laws]))
        assert support.dtype == np.int64 and np.array_equal(support, want)
        assert pvals.shape == (len(laws), support.size)
        for row, law in zip(pvals, laws):
            assert row.tolist() == [law.as_mapping().get(v, 0.0) for v in support.tolist()]


class TestIncrementSums:
    def test_matches_runs_accumulator_across_row_blocks(self):
        # 10,001 rows: two full blocks of BLOCK_ROWS and a partial third
        batch = run(small_cfg(n_max=6, replicas=10_001, rho_grid=(1.1, 1.3)))
        assert batch.replicas > 2 * BLOCK_ROWS and batch.replicas % BLOCK_ROWS
        keys = [(rho, n) for rho in batch.rho_grid for n in range(batch.n_max)]
        sums = increment_sums(batch, keys)
        assert list(sums) == keys
        for j, rho in enumerate(batch.rho_grid):
            for n in range(batch.n_max):
                terms = rho ** np.arange(n + 1) * np.diff(batch.w[:, : n + 2], axis=1)
                a_hat, q2 = sums[rho, n]
                # run's cumulative sum and the pass add the same terms in another order
                assert within(a_hat, batch.a_hat[:, j, n], terms)
                assert within(q2, (terms * terms).sum(axis=1), terms * terms)

    def test_one_slot_per_batch(self):
        batch = run(small_cfg(replicas=50))
        first = increment_sums(batch, [(1.2, 3), (1.2, 3), (1.5, 0)])
        assert list(first) == [(1.2, 3), (1.5, 0)]
        assert batch.sums is first
        assert sums_at(batch, 1.5, 0)[0] is first[1.5, 0][0]
        # a miss runs a one-key pass that replaces the slot
        a_hat, q2 = sums_at(batch, 1.1, 4)
        assert list(batch.sums) == [(1.1, 4)]
        terms = 1.1 ** np.arange(5) * np.diff(batch.w[:, :6], axis=1)
        assert within(a_hat, terms.sum(axis=1), terms)
        assert within(q2, (terms * terms).sum(axis=1), terms * terms)

    def test_scratch_is_one_block_of_increments(self):
        batch = run(small_cfg(replicas=6 * BLOCK_ROWS))
        # more keys than increments a row: a K-row temporary per block would break the bound
        keys = [(rho, n) for rho in (1.0, 1.1, 1.3) for n in range(batch.n_max)]
        top = batch.n_max - 1
        sums, peak = traced_peak(lambda: increment_sums(batch, keys))
        results = 2 * len(keys) * batch.replicas * 8
        assert len(sums) == len(keys) > top + 2
        assert peak - results <= BLOCK_ROWS * (top + 2) * 8 + SLACK_BYTES, (peak, results)

    def test_keys_outside_the_pass_are_left_out(self):
        batch = run(small_cfg(replicas=50))
        bad = [(0.5, 2), (math.inf, 2), (math.nan, 2), (1.2, -1), (1.2, batch.n_max)]
        assert increment_sums(batch, bad + [(1.0, batch.n_max - 1)]) is batch.sums
        assert list(batch.sums) == [(1.0, batch.n_max - 1)]
        assert increment_sums(batch, bad) == {} and batch.sums == {}


def reference_residual(batch, rho, n, a_hat_n):
    """The residual as one whole-batch expression per key, with A_hat_n given.

    The accumulator form is evaluated on every row at once, in the order of
    the identity's formula; the telescoped sum is one matrix-vector product
    per BLOCK_ROWS rows over a C-order W_N - W_k, as the identity pass forms it.
    """
    w = batch.w
    w_proxy = w[:, batch.n_max]
    weights = rho ** np.arange(n + 1)
    blocks = (slice(lo, lo + BLOCK_ROWS) for lo in range(0, len(w), BLOCK_ROWS))
    lhs = np.concatenate([np.subtract(w_proxy[b, None], w[b, : n + 1], order="C") @ weights
                          for b in blocks])
    rhs = (
        rho / (rho - 1.0) * a_hat_n
        + rho ** (n + 1) / (rho - 1.0) * (w_proxy - w[:, n + 1])
        - (w_proxy - 1.0) / (rho - 1.0)
    )
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max() / scale)


def fsum_residual(batch, rho, n):
    """The residual with both sides summed row by row by math.fsum."""
    w = batch.w
    w_proxy = w[:, batch.n_max]
    powers = rho ** np.arange(n + 1)
    lhs = np.array([math.fsum(row) for row in (powers * (w_proxy[:, None] - w[:, : n + 1])).tolist()])
    a_hat = np.array([math.fsum(row) for row in (powers * np.diff(w[:, : n + 2], axis=1)).tolist()])
    tail = rho ** (n + 1) / (rho - 1.0) * (w_proxy - w[:, n + 1])
    rhs = np.array([math.fsum(terms) for terms in zip(
        (rho / (rho - 1.0) * a_hat).tolist(), tail.tolist(), (-(w_proxy - 1.0) / (rho - 1.0)).tolist())])
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max() / scale)


# what a pass may hold besides its scratch: numpy's ufunc iteration buffers,
# np.getbufsize() elements for each of three operands, and small objects
SLACK_BYTES = 3 * 8 * np.getbufsize() + 64 * 1024


def traced_peak(fn):
    """fn's result and the most memory that tracemalloc saw held during fn, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestIdentityPass:
    """The one-pass residuals against the whole-batch reference and a row-by-row fsum oracle."""

    RHOS = (1.0, 1.1, 1.3, 1.7)

    @pytest.fixture(scope="class")
    def batch(self):
        # two full blocks of BLOCK_ROWS and a partial third
        batch = run(small_cfg(replicas=10_001))
        assert batch.replicas > 2 * BLOCK_ROWS and batch.replicas % BLOCK_ROWS
        return batch

    def keys(self, batch):
        return [(rho, n) for rho in self.RHOS for n in (0, 1, 6, batch.n_max - 2, batch.n_max - 1)]

    def test_primed_cold_and_reference_agree_bit_for_bit(self, batch):
        keys = self.keys(batch)
        primed = dict(identity_residuals(batch, keys))
        assert batch.residuals == primed
        # rho = 1 and n = n_max - 1 are left out, for the per-key call to refuse
        assert list(primed) == [(rho, n) for rho, n in keys if rho > 1.0 and n < batch.n_max - 1]
        # the reference reads A_hat_n from one increment pass over every key
        sums = increment_sums(batch, keys)
        for (rho, n), residual in primed.items():
            assert increment_identity_check(batch, rho, n) == residual
            cold = identity_residuals(batch, [(rho, n)])
            assert cold == {(rho, n): residual} and batch.residuals is cold
            assert reference_residual(batch, rho, n, sums[rho, n][0]) == residual, (rho, n)
            # a miss in the slot runs a one-key pass that replaces it
            batch.residuals = {}
            assert increment_identity_check(batch, rho, n) == residual
            assert list(batch.residuals) == [(rho, n)]

    def test_matches_a_row_by_row_fsum_oracle(self, batch):
        for rho, n in ((1.1, 0), (1.3, 6), (1.7, batch.n_max - 2)):
            want = fsum_residual(batch, rho, n)
            assert want <= 1e-12
            assert abs(increment_identity_check(batch, rho, n) - want) <= 1e-12

    def test_keys_outside_the_pass_are_left_out(self, batch):
        bad = [(1.0, 2), (0.5, 2), (math.inf, 2), (math.nan, 2), (1.2, -1), (1.2, batch.n_max - 1)]
        assert identity_residuals(batch, bad) == {} and batch.residuals == {}

    def test_holds_no_per_row_array(self):
        # twelve blocks: per-row sums of nine keys would take 2 x 9 x 8 bytes a row
        batch = run(small_cfg(n_max=8, replicas=12 * BLOCK_ROWS))
        keys = [(rho, n) for rho in (1.1, 1.3, 1.7) for n in (0, 3, 6)]
        top = 6
        residuals, peak = traced_peak(lambda: identity_residuals(batch, keys))
        assert len(residuals) == len(keys)
        # the increments (then the telescoped sums), W_N - 1 and three K-row buffers
        scratch = 8 * BLOCK_ROWS * (top + 2 + 3 * len(keys))
        assert peak <= scratch + SLACK_BYTES, (peak, scratch)


class TestIdentity:
    def test_residual_at_machine_precision(self, gw_batch):
        for rho in gw_batch.rho_grid:
            for n in (1, 10, gw_batch.n_max - 2):
                assert increment_identity_check(gw_batch, rho, n) < 1e-12

    def test_validation(self, gw_batch):
        for bad in (1.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match="rho"):
                increment_identity_check(gw_batch, bad, 2)
        with pytest.raises(ParameterError):
            increment_identity_check(gw_batch, 1.2, gw_batch.n_max - 1)


class TestDumps:
    def test_save_load_round_trip(self, tmp_path):
        cfg = small_cfg(env=M23, mode="quenched", path_seed=23, replicas=50)
        batch = run(cfg)
        target = tmp_path / "batch.npz"
        batch.save(target)
        loaded = TrajectoryBatch.load(target)
        assert np.array_equal(loaded.w, batch.w)
        assert np.array_equal(loaded.a_hat, batch.a_hat)
        assert np.array_equal(loaded.status, batch.status)
        assert loaded.mode == "quenched"
        assert loaded.rho_grid == batch.rho_grid
        assert loaded.path.seed == 23
        assert loaded.path.laws == batch.path.laws
        assert (loaded.meta["stream_scheme"], loaded.meta["block_rows"]) == (STREAM_SCHEME, BLOCK_ROWS)
        # the reloaded batch is usable downstream
        assert increment_identity_check(loaded, 1.2, 5) < 1e-12

    def test_w_is_read_only_after_run_and_load(self, tmp_path):
        batch = run(small_cfg(replicas=20))
        target = tmp_path / "batch.npz"
        batch.save(target)
        for b in (batch, TrajectoryBatch.load(target)):
            with pytest.raises(ValueError, match="read-only"):
                b.w[0, 1] = 2.0
            assert b.sums == {}

    def test_load_rejects_unknown_format(self, tmp_path, monkeypatch):
        batch = run(small_cfg(replicas=5))
        target = tmp_path / "batch.npz"
        batch.save(target)
        monkeypatch.setattr("bprelab.simulate._DUMP_FORMAT", 99)
        with pytest.raises(ParameterError, match="format"):
            TrajectoryBatch.load(target)
