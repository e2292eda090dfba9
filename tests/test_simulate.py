"""Trajectory engine: reproducibility, statuses, dumps, the A/A-hat identity."""

import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bprelab import (
    EnvPath,
    FixedPath,
    IIDMixture,
    MomentTable,
    OffspringLaw,
    ParameterError,
    SimConfig,
    SimulationError,
    TrajectoryBatch,
    increment_identity_check,
    run,
)
from bprelab import harness, relations, simulate
from bprelab.config import _ENV_LISTS, load_config
from bprelab.errors import FitUnavailableError
from bprelab.estimators import MIN_REPLICAS, _row_moments, burkholder_sandwich, fit_decay, lp_norm, w_moment
from bprelab.harness import run_experiment
from bprelab.relations import IDENTITY_TOL
from bprelab.simulate import (
    BLOCK_ROWS,
    STATUS_CAPPED,
    STATUS_COMPLETED,
    STATUS_EXTINCT,
    STREAM_SCHEME,
    _law_table,
    BRACKET,
    IDENTITY,
    MOMENT,
    PRODUCT_ROWS,
    _simulate_block,
    _weights,
    partials,
    reduce_batch,
)

from stored import stored_batch

ROOT = Path(__file__).resolve().parent.parent
GW_PMF = {0: 0.25, 2: 0.75}
GW_ENV = IIDMixture([OffspringLaw(GW_PMF)], [1.0])
M23 = IIDMixture([OffspringLaw({2: 1.0}), OffspringLaw({3: 1.0})], [0.5, 0.5])


def bracket_keys(ps, rhos, ns):
    """The reducer's bracket key at each p, rho and n, in that order."""
    return [(BRACKET, p, rho, n) for p in ps for rho in rhos for n in ns]


def small_cfg(**overrides):
    base = dict(
        env=GW_ENV, mode="annealed", n_max=12, replicas=500, master_seed=17,
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


def row_by_row_block(rng, states, laws, pop_cap):
    """One block replayed one replica at a time, as a plain loop; returns (w, status, status_gen).

    states[i, n] is row i's law at generation n. Generation by generation,
    each law in index order draws its live rows in row order: one
    multinomial per row over the sorted union support of the laws, a point
    mass included, so the engine's skip must leave the stream where these
    draws do.
    """
    support = sorted({v for law in laws for v in law.as_mapping()})
    padded = [[law.as_mapping().get(v, 0.0) for v in support] for law in laws]
    rows, n_max = states.shape
    w = np.ones((rows, n_max + 1))
    status = np.full(rows, STATUS_COMPLETED)
    status_gen = np.full(rows, -1)
    z, log_p = [1] * rows, [0.0] * rows
    for n in range(n_max):
        w[:, n + 1] = w[:, n]
        for state, law in enumerate(laws):
            for i in range(rows):
                if status[i] != STATUS_COMPLETED or states[i, n] != state:
                    continue
                z[i] = int(rng.multinomial(z[i], padded[state]) @ support)
                log_p[i] += law.log_mean
                w[i, n + 1] = z[i] * math.exp(-log_p[i])
                if z[i] == 0 or z[i] > pop_cap:
                    status[i] = STATUS_EXTINCT if z[i] == 0 else STATUS_CAPPED
                    status_gen[i] = n + 1
    return w, status, status_gen


def row_by_row_reference(cfg):
    """The block scheme replayed by row_by_row_block: each block's stream first draws every row's
    states by choice, then the block's generations."""
    blocks = []
    for block, lo in enumerate(range(0, cfg.replicas, BLOCK_ROWS)):
        rng = np.random.default_rng(cfg.block_seed(block))
        size = (min(BLOCK_ROWS, cfg.replicas - lo), cfg.n_max)
        states = rng.choice(len(cfg.env.states), size=size, p=cfg.env.weights)
        blocks.append(row_by_row_block(rng, states, cfg.env.states, cfg.pop_cap))
    return tuple(np.concatenate(part) for part in zip(*blocks))


TWO_LAWS = IIDMixture([OffspringLaw(GW_PMF), OffspringLaw({1: 0.2, 4: 0.8})], [0.6, 0.4])
# three states after the zero-weight one is dropped, one of them deterministic
THREE_LAWS = IIDMixture(
    [OffspringLaw({2: 1.0}), OffspringLaw({1: 0.5, 3: 0.5}), OffspringLaw({5: 1.0}),
     OffspringLaw({0: 0.05, 2: 0.95})],
    [0.3, 0.3, 0.0, 0.4],
)


def assert_same_batch(got, want, keys):
    """The same status, status_gen and partials of every key, bit for bit."""
    assert np.array_equal(got.status, want.status) and np.array_equal(got.status_gen, want.status_gen)
    assert list(got.partials) == list(want.partials) == keys
    for key in keys:
        assert np.array_equal(got.partials[key], want.partials[key]), key


class TestDeterminism:
    def test_matches_row_by_row_reference(self):
        cases = [
            # extinction and capping in both blocks
            (TWO_LAWS, 1000, 300, [{STATUS_EXTINCT, STATUS_CAPPED, STATUS_COMPLETED}] * 2),
            # no capping, and a second block in which no row stops: it stays on the slice path
            (THREE_LAWS, 10**7, 8, [{STATUS_EXTINCT, STATUS_COMPLETED}, {STATUS_COMPLETED}]),
        ]
        for env, pop_cap, tail, statuses in cases:
            # a full block and a partial one, laws on different supports
            cfg = small_cfg(env=env, n_max=10, replicas=BLOCK_ROWS + tail, pop_cap=pop_cap)
            batch = stored_batch(cfg)
            w, status, status_gen = row_by_row_reference(cfg)
            blocks = (slice(0, BLOCK_ROWS), slice(BLOCK_ROWS, None))
            assert [set(status[rows].tolist()) for rows in blocks] == statuses
            assert np.array_equal(batch.status, status)
            assert np.array_equal(batch.status_gen, status_gen)
            # the engine's exp of a running log P_n may differ from math.exp in the last bits
            assert np.allclose(batch.w, w, rtol=1e-14, atol=0)

    def test_same_config_bitwise_identical(self):
        keys = reducer_keys(12, 4)
        a = run(small_cfg(), reductions=keys)
        b = run(small_cfg(), reductions=keys)
        assert_same_batch(a, b, keys)

    def test_thread_count_does_not_change_results(self):
        keys = reducer_keys(12, 4)
        a = run(small_cfg(), threads=1, reductions=keys)
        b = run(small_cfg(), threads=4, reductions=keys)
        assert_same_batch(a, b, keys)

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

    @pytest.mark.parametrize("env", [
        # two_state.cfg, two_means.cfg, and three states with unequal weights
        IIDMixture([OffspringLaw({1: 0.5, 3: 0.5}), OffspringLaw({2: 1.0})], [0.5, 0.5]),
        IIDMixture([OffspringLaw({0: 0.55, 2: 0.45}), OffspringLaw({3: 1.0})], [0.5, 0.5]),
        IIDMixture([OffspringLaw(GW_PMF), OffspringLaw({2: 1.0}), OffspringLaw({1: 0.5, 4: 0.5})],
                   [0.2, 0.5, 0.3]),
    ])
    @pytest.mark.parametrize("seed", [0, 7, 11, 2**40 + 3])
    def test_a_realized_path_is_the_prefix_of_every_longer_one(self, env, seed):
        # a quenched quantity may extend the path it shares beyond n_max by drawing a longer one
        longest = simulate.quenched_path(env, 3000, seed)
        for length in (1, 12, 30, 400):
            path = simulate.quenched_path(env, length, seed)
            assert path.laws == longest.laws[:length]
            assert path.log_means.tobytes() == longest.log_means[: length + 1].tobytes()

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
        batch = stored_batch(small_cfg(env=env, pop_cap=1000, replicas=8))
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


# Chi-square test of the simulated Z_n law against the exact Fraction law of
# tests/oracles.py; the level, the cell rule and the seeds are fixed in advance.
CHI2_ALPHA = 1e-3
CHI2_MIN_EXPECTED = 5.0
CHI2_REPLICAS = 20_000
CHI2_N_MAX = 4
PATH_PMFS = [{0: 0.25, 2: 0.75}, {1: 0.5, 3: 0.5}, {0: 0.2, 1: 0.3, 3: 0.5}, {2: 1.0}]
MEAN_TWO_PMFS = [{1: 0.5, 3: 0.5}, {2: 1.0}]
DRAWING_PMFS = [{1: 0.5, 3: 0.5}, {0: 0.5, 4: 0.5}]


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
        batch = stored_batch(small_cfg(env=env, mode="quenched", n_max=CHI2_N_MAX,
                                       replicas=CHI2_REPLICAS, master_seed=31))
        exact = oracles.generation_distributions(PATH_PMFS, CHI2_N_MAX)
        for n in range(1, CHI2_N_MAX + 1):
            z = batch.w[:, n] * math.exp(batch.path.log_means[n])
            assert np.allclose(z, np.rint(z), rtol=0, atol=1e-6)
            pvalue = chi2_pvalue(np.rint(z).astype(np.int64), exact[n])
            assert pvalue > CHI2_ALPHA, (n, pvalue)

    def assert_annealed_laws(self, pmfs, master_seed):
        # both states have mean 2, so P_n = 2^n on every path and Z_n = 2^n W_n
        env = IIDMixture([OffspringLaw(q) for q in pmfs], [0.5, 0.5])
        batch = stored_batch(small_cfg(env=env, n_max=CHI2_N_MAX, replicas=CHI2_REPLICAS,
                                       master_seed=master_seed))
        exact = oracles.annealed_generation_distributions(pmfs, [0.5, 0.5], CHI2_N_MAX)
        for n in range(1, CHI2_N_MAX + 1):
            z = batch.w[:, n] * 2**n
            assert np.allclose(z, np.rint(z), rtol=0, atol=1e-6)
            pvalue = chi2_pvalue(np.rint(z).astype(np.int64), exact[n])
            assert pvalue > CHI2_ALPHA, (n, pvalue)

    def test_annealed_mean_two_mixture(self):
        # one law draws, the other is a point mass that skips its draw
        self.assert_annealed_laws(MEAN_TWO_PMFS, 37)

    def test_annealed_mixture_of_two_drawing_laws(self):
        # both laws draw, so two law groups share each generation's stream
        self.assert_annealed_laws(DRAWING_PMFS, 41)


class RecordingRng:
    """A generator that records the dimension and the fewest nonzero entries of every pmf it is given."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.pmf_ndims = set()
        self.fewest_nonzero = math.inf

    def multinomial(self, n, pvals):
        self.pmf_ndims.add(np.ndim(pvals))
        self.fewest_nonzero = min(self.fewest_nonzero, np.count_nonzero(pvals, axis=-1).min())
        return self.rng.multinomial(n, pvals)


def simulate_block(rng, states, support, pvals, log_means, pop_cap, rows):
    """_simulate_block on fresh generation-major outputs; returns (w, status, status_gen)."""
    w = np.empty((len(states) + 1, rows)).T
    w[:, 0] = 1.0
    status = np.full(rows, STATUS_COMPLETED, dtype=np.int8)
    status_gen = np.full(rows, -1, dtype=np.int32)
    _simulate_block(rng, states, support, pvals, log_means, pop_cap, w, status, status_gen)
    return w, status, status_gen


def assert_same_outputs(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestOnePmfPerGeneration:
    """When every row shares a law, the shared path draws what a per-row block of that law draws."""

    def assert_same_draws(self, path, support, pvals, log_means):
        # a 1-D path takes the shared path, the same law repeated on every row the per-row one
        rows = 300
        per_row = np.repeat(path[:, None], rows, axis=1).astype(np.uint8)
        one, each = RecordingRng(41), RecordingRng(41)
        got = simulate_block(one, path, support, pvals, log_means, 60, rows)
        want = simulate_block(each, per_row, support, pvals, log_means, 60, rows)
        # both hand multinomial one 1-D pmf row at a time, never a point mass
        assert (one.pmf_ndims, each.pmf_ndims) == ({1}, {1})
        assert one.fewest_nonzero >= 2 and each.fewest_nonzero >= 2
        assert_same_outputs(got, want)
        assert {STATUS_EXTINCT, STATUS_CAPPED} <= set(got[1].tolist())

    def test_quenched_path(self):
        laws = [OffspringLaw(q) for q in PATH_PMFS]
        support, pvals = _law_table(laws)
        path = np.arange(12) % len(laws)
        self.assert_same_draws(path, support, pvals, np.array([law.log_mean for law in laws]))

    def test_one_state_mixture(self):
        # an unused second law: pvals holds more than the one law drawn
        laws = [OffspringLaw(GW_PMF), OffspringLaw({1: 0.5, 3: 0.5})]
        support, pvals = _law_table(laws)
        path = np.zeros(12, dtype=np.intp)
        self.assert_same_draws(path, support, pvals, np.array([law.log_mean for law in laws]))

    def test_the_block_streams_are_pcg64(self):
        # run skips a one-state mixture's choice call with advance, which counts PCG64 outputs
        assert isinstance(np.random.default_rng(0).bit_generator, np.random.PCG64)

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    def test_run_equals_the_per_row_block(self, mode):
        # run's shared path (one scalar log P_n) against every row's own law and log P_n
        env = GW_ENV if mode == "annealed" else FixedPath([OffspringLaw(q) for q in PATH_PMFS * 3])
        cfg = small_cfg(env=env, mode=mode, replicas=BLOCK_ROWS + 7)
        batch = stored_batch(cfg)
        laws = GW_ENV.states if mode == "annealed" else batch.path.laws
        support, pvals = _law_table(laws)
        log_means = np.array([law.log_mean for law in laws])
        for block, lo in enumerate(range(0, cfg.replicas, BLOCK_ROWS)):
            rows = slice(lo, lo + BLOCK_ROWS)
            size = (len(batch.w[rows]), cfg.n_max)
            rng = np.random.default_rng(cfg.block_seed(block))
            if mode == "annealed":
                states = rng.choice(1, size=size, p=[1.0]).T.astype(np.uint8)
            else:
                states = np.tile(np.arange(cfg.n_max)[:, None], (1, size[0]))
            want = simulate_block(rng, states, support, pvals, log_means, cfg.pop_cap, size[0])
            assert_same_outputs((batch.w[rows], batch.status[rows], batch.status_gen[rows]), want)


def old_block(rng, path, support, pvals, log_means, pop_cap, rows):
    """The earlier shared-path block formulation on fresh outputs; returns (w, status, status_gen).

    path[n] indexes the law every row uses at generation n. Each generation is
    one multinomial call over the live rows against that law's pmf row, a
    point mass included, and 1/P_n comes from one cumsum/exp vector.
    """
    pinv = np.exp(-np.cumsum(log_means[path]))
    w = np.ones((rows, len(path) + 1))
    status = np.full(rows, STATUS_COMPLETED, dtype=np.int8)
    status_gen = np.full(rows, -1, dtype=np.int32)
    live = np.arange(rows)
    z = np.ones(rows, dtype=np.int64)
    for n in range(len(path)):
        w[:, n + 1] = w[:, n]
        if not live.size:
            continue
        z = rng.multinomial(z, pvals[path[n]]) @ support
        w[live, n + 1] = z * pinv[n]
        stop = (z == 0) | (z > pop_cap)
        if stop.any():
            gone = live[stop]
            status[gone] = np.where(z[stop] == 0, STATUS_EXTINCT, STATUS_CAPPED)
            status_gen[gone] = n + 1
            live, z = live[~stop], z[~stop]
    return w, status, status_gen


def old_run(cfg):
    """run's w, status and status_gen by the earlier formulation, block by block in one process.

    Only for batches whose rows share one path: a quenched path, or a
    one-state mixture, which advances past the uniforms choice would draw.
    """
    shared = simulate.quenched_path(cfg.env, cfg.n_max, cfg.path_seed) if cfg.mode == "quenched" else None
    laws = cfg.env.states if shared is None else shared.laws
    assert shared is not None or len(laws) == 1
    support, pvals = _law_table(laws)
    log_means = np.array([law.log_mean for law in laws])
    path = np.arange(cfg.n_max) if shared is not None else np.zeros(cfg.n_max, dtype=np.intp)
    parts = []
    for block, lo in enumerate(range(0, cfg.replicas, BLOCK_ROWS)):
        rows = min(BLOCK_ROWS, cfg.replicas - lo)
        rng = np.random.default_rng(cfg.block_seed(block))
        if shared is None:
            rng.bit_generator.advance(rows * cfg.n_max)
        parts.append(old_block(rng, path, support, pvals, log_means, cfg.pop_cap, rows))
    return tuple(np.concatenate(part) for part in zip(*parts))


class TestPointMass:
    """A point-mass generation skips multinomial: same outputs, same stream position."""

    @pytest.mark.parametrize("mass", [2, 3], ids=["inner-value", "last-value"])
    def test_outputs_and_stream_match_the_multinomial_route(self, mass):
        laws = [OffspringLaw(GW_PMF), OffspringLaw({1: 0.5, 3: 0.5}), OffspringLaw({mass: 1.0})]
        support, pvals = _law_table(laws)
        assert support.tolist() == [0, 1, 2, 3]
        log_means = np.array([law.log_mean for law in laws])
        path = np.array([2, 0, 2, 1, 2, 2, 0, 2, 1, 2, 0, 2])
        rows = 300
        per_row = np.repeat(path[:, None], rows, axis=1).astype(np.uint8)
        one, each, drawn = RecordingRng(43), RecordingRng(43), RecordingRng(43)
        got = simulate_block(one, path, support, pvals, log_means, 10**6, rows)
        assert_same_outputs(got, simulate_block(each, per_row, support, pvals, log_means, 10**6, rows))
        assert_same_outputs(got, old_block(drawn, path, support, pvals, log_means, 10**6, rows))
        # the shared and per-row blocks hand multinomial 1-D pmf rows, never the point mass
        assert (one.pmf_ndims, each.pmf_ndims, drawn.pmf_ndims) == ({1}, {1}, {1})
        assert (one.fewest_nonzero, each.fewest_nonzero, drawn.fewest_nonzero) == (2, 2, 1)
        assert {STATUS_EXTINCT, STATUS_COMPLETED} <= set(got[1].tolist())
        # the skip advanced the stream to where the draws left it
        assert one.rng.random() == each.rng.random() == drawn.rng.random()

    @pytest.mark.parametrize("mass", [2, 3], ids=["inner-value", "last-value"])
    def test_a_per_row_block_matches_the_row_by_row_draws(self, mass):
        # every row its own law, the point mass among them: the skip leaves the stream where a
        # multinomial draw on each of its rows would
        laws = [OffspringLaw(GW_PMF), OffspringLaw({1: 0.5, 3: 0.5}), OffspringLaw({mass: 1.0})]
        support, pvals = _law_table(laws)
        log_means = np.array([law.log_mean for law in laws])
        states = np.random.default_rng(5).integers(len(laws), size=(300, 12))
        rng, reference = RecordingRng(47), np.random.default_rng(47)
        got = simulate_block(rng, states.T.astype(np.uint8), support, pvals, log_means, 1000, 300)
        w, status, status_gen = row_by_row_block(reference, states, laws, 1000)
        assert (rng.pmf_ndims, rng.fewest_nonzero) == ({1}, 2)
        assert {STATUS_EXTINCT, STATUS_CAPPED, STATUS_COMPLETED} <= set(got[1].tolist())
        assert np.array_equal(got[1], status) and np.array_equal(got[2], status_gen)
        assert np.allclose(got[0], w, rtol=1e-14, atol=0)
        assert rng.rng.random() == reference.random()


class TestOldFormulation:
    """run against the earlier block formulation, bit for bit, on the batches whose stream it kept.

    The per-row mixtures' order, law by law within a generation, is held by
    TestDeterminism::test_matches_row_by_row_reference.
    """

    @pytest.mark.parametrize("cfg", [
        small_cfg(env=FixedPath([OffspringLaw(q) for q in PATH_PMFS * 3]), mode="quenched",
                  replicas=BLOCK_ROWS + 7, pop_cap=1000),
        small_cfg(replicas=BLOCK_ROWS + 7),
    ], ids=["quenched-fixed-path", "one-state-mixture"])
    def test_run_equals_the_old_formulation(self, cfg):
        batch = stored_batch(cfg)
        assert_same_outputs((batch.w, batch.status, batch.status_gen), old_run(cfg))
        assert len(set(batch.status.tolist())) > 1


TWO_MEANS = IIDMixture([OffspringLaw({0: 0.55, 2: 0.45}), OffspringLaw({3: 1.0})], [0.5, 0.5])


class TestStoredBatch:
    """The tests' stored batch is run's: its w, reduced by reduce_batch, gives run's partials."""

    @pytest.mark.parametrize("cfg", [
        small_cfg(env=FixedPath([OffspringLaw(q) for q in PATH_PMFS * 3]), mode="quenched",
                  replicas=3 * BLOCK_ROWS + 7, pop_cap=1000),
        small_cfg(replicas=3 * BLOCK_ROWS + 7),
        small_cfg(env=TWO_LAWS, replicas=3 * BLOCK_ROWS + 7, pop_cap=1000),
        # two_means.cfg's mixture: a drawing law and a point mass at the largest value
        small_cfg(env=TWO_MEANS, replicas=3 * BLOCK_ROWS + 7),
    ], ids=["quenched-fixed-path", "one-state-mixture", "two-law-mixture", "two-means"])
    def test_reduces_to_runs_partials_bit_for_bit(self, cfg):
        keys = reducer_keys(cfg.n_max, 4)
        stored = stored_batch(cfg)
        assert reduce_batch(stored, keys) == keys
        assert_same_batch(run(cfg, reductions=keys), stored, keys)
        assert len(set(stored.status.tolist())) > 1


def sites(hit) -> list[tuple[str, str]]:
    """(module, scope) for each node of bprelab's source for which hit(node) is true.

    The scope is the top-level function or class, Class.method for a method,
    or the source of the target a module-level assignment binds.
    """
    found = []
    for path in sorted(Path(simulate.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                    scope = f"{stmt.name}.{member.name}" if member is not stmt else member.name
                elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                    scope = ast.unparse(getattr(member, "target", None) or member.targets[0])
                else:
                    scope = stmt.name if member is not stmt else "<module>"
                found += [(path.stem, scope) for node in ast.walk(member) if hit(node)]
    return found


def named(node) -> str | None:
    """The name a Name or an Attribute node reads, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def calls(attr):
    return lambda node: isinstance(node, ast.Call) and named(node.func) == attr


class TestOneOwner:
    """Each rule of the simulator and of its inputs is stated at one site, which every user reads."""

    def test_one_multinomial_draw_site(self):
        # shared and per-row blocks alike draw each law's live rows against its one pmf row in
        # _simulate_block; a second call, or a per-row pmf table taken from pvals, would be a second rule
        assert sites(calls("multinomial")) == [("simulate", "_simulate_block")]
        assert "np.take(pvals" not in Path(simulate.__file__).read_text()

    def test_one_state_draw(self):
        # environment states are drawn from a Generator at one site, which a mixture's paths and the
        # annealed blocks both call; a second choice, or a second cdf search, would be a second draw
        assert sites(lambda node: calls("choice")(node) or calls("random")(node)) == [
            ("environment", "IIDMixture.draw_states")]
        assert sites(lambda node: named(node) == "draw_states") == [
            ("environment", "IIDMixture.sample_path"), ("simulate", "_block_filler")]
        assert not {"_choice_cdf", "_draw_states"} & set(vars(simulate))

    def test_one_pmf_rule(self):
        # a probability vector's entries, its 1e-12 total, the "sum to" refusal, the dropped zeros and
        # the renormalization are normalized_probs's, which every law and every mixture calls
        tolerance = sites(lambda node: isinstance(node, ast.Compare) and any(
            isinstance(c, ast.Constant) and c.value == 1e-12 for c in node.comparators))
        refusal = sites(lambda node: isinstance(node, ast.JoinedStr) and "sum to" in ast.unparse(node))
        assert tolerance == refusal == [("offspring", "normalized_probs")]
        assert sites(calls("normalized_probs")) == [
            ("environment", "IIDMixture.__init__"), ("offspring", "OffspringLaw.__init__")]

    def test_one_weighted_line_solve(self):
        # fit_decay's preliminary and weighted passes are wls_line's only calls: a rate section takes
        # the exact curve's slope from the fit's own slope row, not from a second solve
        assert sites(calls("wls_line")) == [("estimators", "fit_decay")] * 2

    def test_one_set_of_batch_minimums(self):
        # n_max >= 1, replicas >= 1 and pop_cap >= 1000 are BATCH_MINIMUMS, which SimConfig and the config
        # loader read; no batch's or config's size is compared with a number, and no other table lists them
        # (a bare n_max is an argument: the exact tables' horizon or the reducer's domain)
        sizes = set(simulate.BATCH_MINIMUMS)

        def bound(node):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            return (any(isinstance(o, ast.Attribute) and o.attr in sizes for o in operands)
                    and any(isinstance(o, ast.Constant) for o in operands))

        def table(node):
            return isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value in sizes and isinstance(v, ast.Constant)
                for k, v in zip(node.keys, node.values))

        assert sites(bound) == []
        assert sites(table) == [("simulate", "BATCH_MINIMUMS")]
        assert sorted(set(sites(lambda node: named(node) == "BATCH_MINIMUMS"))) == [
            ("config", "_INT_MINIMUMS"), ("simulate", "BATCH_MINIMUMS"), ("simulate", "SimConfig.__post_init__")]

    def test_one_identity_domain(self):
        # 0 <= n < n_max - 1 is stated in the reducer's _refusal alone: the identity suite keeps its keys
        # by asking _refusal, its need holds where a key is kept, and neither orders an n against n_max
        def ordering(node):
            return isinstance(node, ast.Compare) and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                                                         for op in node.ops)

        assert sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_refusal") == [
            ("harness", "_identity_keys")]
        assert ("simulate", "_refusal") in sites(ordering)
        assert ("harness", "_identity_keys") not in sites(ordering)
        needs = next(stmt.value for stmt in ast.parse(Path(harness.__file__).read_text()).body
                     if isinstance(stmt, ast.Assign) and named(stmt.targets[0]) == "_NEEDS")
        (holds,) = [row.elts[2] for row in needs.elts if ast.unparse(row.elts[0]) == "('identity',)"]
        assert "_identity_keys" in {named(node) for node in ast.walk(holds)}
        assert not any(ordering(node) for node in ast.walk(holds))

    def test_one_mark_of_a_quenched_table(self):
        # a quenched table is the one that carries log P_n, which w_moments tests; a mode would say it twice
        assert [f.name for f in dataclasses.fields(MomentTable)] == ["s", "max_order", "values", "log_means"]

    def test_one_moment_order_range(self):
        # 1..MAX_ORDER is conditional_moment_coeffs's, which every table reaches; quenched_moments
        # states it too, since at n_max = 0 it asks for no coefficients
        def range_check(node):
            return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant) and node.left.value == 1
                    and any(named(c) == "MAX_ORDER" for c in node.comparators))

        def refusal(node):
            return (isinstance(node, ast.JoinedStr) and "in 1.." in ast.unparse(node)
                    and any(named(part) == "MAX_ORDER" for part in ast.walk(node)))

        owners = [("exact_moments", "conditional_moment_coeffs"), ("exact_moments", "quenched_moments")]
        assert sites(range_check) == sites(refusal) == owners

    def test_one_stationary_law_refusal(self):
        # a fixed path's stationary functionals refuse in the Environment base alone, which p2_closed_forms
        # and the rates reach through mean_power; the annealed table's own refusal is its need of states
        # and weights
        assert sites(lambda node: isinstance(node, ast.Raise) and "stationary law" in ast.unparse(node)) == [
            ("environment", "Environment.geo_mean"), ("environment", "Environment.mean_power"),
            ("environment", "Environment.expect")]
        assert sites(lambda node: isinstance(node, ast.Raise) and named(getattr(node.exc, "func", None))
                     == "UnsupportedOperationError") == [
            ("environment", "Environment.geo_mean"), ("environment", "Environment.mean_power"),
            ("environment", "Environment.expect"), ("exact_moments", "annealed_moment_table")]

    def test_one_mapping_of_environment_lists(self):
        # each environment kind's list key is written once, in the loader's _ENV_LISTS, which parses both
        # kinds by one rule; no key path or refusal spells a list key out
        def list_key(node):
            return isinstance(node, ast.Constant) and isinstance(node.value, str) and bool(
                re.fullmatch(r"\.?(states|path)\[?", node.value))

        assert sites(list_key) == [("config", "_ENV_LISTS")] * 2
        assert _ENV_LISTS == {"mixture": "states", "fixed_path": "path"}


class TestStateDraw:
    """IIDMixture.draw_states gives choice's draws, transposed, and leaves the stream where choice does."""

    @staticmethod
    def mixture(weights):
        return IIDMixture([OffspringLaw({k + 1: 1.0}) for k in range(len(weights))], weights)

    @pytest.mark.parametrize("weights", [
        [0.6, 0.4],
        [0.2, 0.5, 0.3],
        [0.1, 0.15, 0.2, 0.25, 0.3],
        [0.5, 0.0, 0.5],
        [0.0, 0.7, 0.3],
        [0.3, 0.3, 0.4, 0.0],
        [0.4, 0.3, 0.2, 0.1],
        [0.05] * 20,
    ], ids=["K2", "K3", "K5", "zero-inside", "zero-first", "zero-last", "cumsum-below-1",
            "cumsum-above-1"])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    @pytest.mark.parametrize("rows", [BLOCK_ROWS, 301])
    def test_equals_choice(self, weights, seed, rows):
        # the mixture drops its zero-weight states, so its index k is choice's kept[k]
        n_max = 13
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        states = self.mixture(weights).draw_states(mine, rows, n_max)
        want = theirs.choice(len(weights), size=(rows, n_max), p=weights).T
        assert states.shape == (n_max, rows) and states.dtype.itemsize == 1
        assert states.flags.c_contiguous
        assert np.array_equal(np.flatnonzero(weights)[states], want)
        assert mine.random() == theirs.random()

    @pytest.mark.parametrize("weights", [[0.4, 0.3, 0.2, 0.1], [0.05] * 20])
    def test_a_cumsum_that_does_not_end_at_one(self, weights):
        # the cdf is normalised by its last entry, as choice normalises it
        mixture = self.mixture(weights)
        assert np.cumsum(mixture.weights)[-1] != 1.0
        assert mixture._cdf[-1] == 1.0

    @pytest.mark.parametrize("weights", [[0.6, 0.4], [0.5, 0.0, 0.5], [1.0]])
    def test_sample_path_is_one_row_of_the_draw(self, weights):
        mixture = self.mixture(weights)
        mine, theirs = np.random.default_rng(3), np.random.default_rng(3)
        path = mixture.sample_path(40, mine)
        want = theirs.choice(len(mixture.states), size=40, p=mixture.weights)
        assert path.laws == tuple(mixture.states[k] for k in want)
        assert mine.random() == theirs.random()


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
        # four blocks, two laws, extinct and capped rows
        small_cfg(env=TWO_LAWS, n_max=10, replicas=3 * BLOCK_ROWS + 5, pop_cap=1000),
        small_cfg(env=TWO_LAWS, mode="quenched", path_seed=3, replicas=2 * BLOCK_ROWS + 1),
        small_cfg(replicas=2 * BLOCK_ROWS + 3),
    ], ids=["annealed-two-laws", "quenched-mixture", "one-state-mixture"])
    def test_worker_count_changes_no_output(self, cfg, forks, monkeypatch):
        blocks, keys = -(-cfg.replicas // BLOCK_ROWS), reducer_keys(cfg.n_max, 4)
        default = run(cfg, reductions=keys)
        assert len(forks) == min(len(os.sched_getaffinity(0)), blocks) - 1
        forks.clear()
        set_cpus(monkeypatch, 1)
        one = run(cfg, reductions=keys)
        assert forks == []
        # three workers for four or three blocks, on any number of cores
        set_cpus(monkeypatch, 3)
        three = run(cfg, reductions=keys)
        assert len(forks) == 2
        assert_no_child_left()
        for batch in (default, one, three):
            assert (batch.status.dtype, batch.status_gen.dtype) == (np.int8, np.int32)
            assert {batch.partials[key].dtype for key in keys} == {np.dtype(np.float64)}
            assert_same_batch(batch, one, keys)
        if cfg.mode == "annealed" and len(cfg.env.states) == 2:
            assert {STATUS_EXTINCT, STATUS_CAPPED, STATUS_COMPLETED} <= set(one.status.tolist())

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


# laws for the reducer sweep: one grows past a pop_cap of 1000 within a few generations and
# dies out with mass 0.3, two are point masses (W_n stays 1 up to rounding)
REDUCER_LAWS = [{0: 0.3, 6: 0.7}, GW_PMF, {1: 1.0}, {2: 1.0}, {1: 0.5, 3: 0.5}]


def reducer_keys(n_max, gap):
    """Moments at gaps 0 and gap, brackets at two p, rho and n, and every identity n at rho 1.2."""
    return ([(MOMENT, p, n, g) for p in (1.5, 2.0) for g in (0, gap) for n in range(n_max - g + 1)]
            + [(BRACKET, p, rho, n) for p in (1.5, 3.0) for rho in (1.0, 1.2) for n in (0, n_max - 1)]
            + [(IDENTITY, 1.2, n) for n in range(n_max - 1)])


@st.composite
def reduced_configs(draw):
    """A mixture batch (annealed, or quenched along a drawn path) or a fixed-path batch of 150 to
    400 rows to n_max <= 8, pop_cap 1000, with its reducer keys."""
    n_max = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(("annealed", "quenched", "fixed")))
    picks = draw(st.lists(st.sampled_from(REDUCER_LAWS), min_size=1, max_size=3))
    laws = [OffspringLaw(pmf) for pmf in picks]
    if kind == "fixed":
        env = FixedPath([laws[k % len(laws)] for k in range(n_max)])
    else:
        weights = draw(st.lists(st.integers(1, 9), min_size=len(laws), max_size=len(laws)))
        env = IIDMixture(laws, [x / sum(weights) for x in weights])
    cfg = SimConfig(env=env, mode="annealed" if kind == "annealed" else "quenched", n_max=n_max,
                    replicas=draw(st.integers(150, 400)), master_seed=draw(st.integers(0, 2**32 - 1)),
                    path_seed=draw(st.integers(0, 2**32 - 1)) if kind == "quenched" else None, pop_cap=1000)
    return cfg, reducer_keys(n_max, draw(st.integers(1, n_max - 1)))


def close(got, want, scale=0.0):
    """got within 1e-12 of want, relative to max(|want|, scale)."""
    return bool(np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.maximum(np.abs(want), scale)))


def family_rows(w, p, gap):
    """Plain numpy: x_m = |W_{m+gap} - W_m|^p (W_m^p at gap 0), m = 0..n_max - gap, one column per m."""
    k = w.shape[1] - gap
    return (np.abs(w[:, gap:] - w[:, :k]) if gap else w) ** p


def slope_row(ns, sds):
    """Plain numpy: the slope row of (X^T W X)^-1 X^T W for the line through ns with weights 1/sds^2."""
    x_mat, wts = np.column_stack([np.ones(len(ns)), ns]), 1.0 / np.asarray(sds) ** 2
    return np.linalg.solve(x_mat.T @ (wts[:, None] * x_mat), x_mat.T * wts)[1]


def assert_family_matches_numpy(ests, x):
    """Each estimate of one family against plain numpy on its uncapped rows x: its value, its
    stderr x.std(ddof=1)/sqrt(N) and its covariance row np.cov/N, each within 1e-12 of the mean
    products it is formed from; and, where the family fits, the fit's slope_se against the row sd,
    over sqrt(N), of the linearized slope sum_n c_n x_n / (p mu_n). Returns the fit, or None."""
    used, p = len(x), ests[0].p
    means, cov, products = x.mean(axis=0), np.cov(x, rowvar=False, ddof=1), x.T @ x / len(x)
    for n, est in enumerate(ests):
        assert close(est.value, means[n]), n
        assert close(est.stderr**2, x[:, n].var(ddof=1) / used, products[n, n] / used), n
        assert close(est.covariance, np.atleast_2d(cov)[n] / used, np.abs(products[n]) / used), n
    try:
        fit = fit_decay(ests)
    except FitUnavailableError:
        return None
    lo, hi = fit.window
    sds = x[:, lo : hi + 1].std(axis=0, ddof=1) / math.sqrt(used) / (p * means[lo : hi + 1])
    jc = slope_row(np.arange(lo, hi + 1), sds) / (p * means[lo : hi + 1])
    linear = x[:, lo : hi + 1] @ jc
    scale = np.mean((x[:, lo : hi + 1] @ np.abs(jc)) ** 2) / used
    assert close(fit.slope_se**2, linear.var(ddof=1) / used, scale), fit
    return fit


def assert_workers_reduce_the_stored_batch(cfg, keys, mp):
    """run's worker-reduced partials at 1, 2 and 3 workers against the stored batch's, bit for bit;
    its estimates, their covariance rows and each family's fit against plain numpy on the stored w
    (see assert_family_matches_numpy); an undeclared key refused by name. Returns each moment
    family's fit, or None, by (p, gap)."""
    stored = stored_batch(cfg)
    assert reduce_batch(stored, keys) == keys
    for cpus in (1, 2, 3):
        set_cpus(mp, cpus)
        reduced = run(cfg, reductions=keys)
        assert reduced.w.shape == (0, cfg.n_max + 1) and reduced.replicas == cfg.replicas
        assert np.array_equal(reduced.status, stored.status)
        assert list(reduced.partials) == list(stored.partials) and set(keys) <= set(reduced.partials)
        for key in reduced.partials:
            assert np.array_equal(reduced.partials[key], stored.partials[key]), (cpus, key)
    w, kept, fits = stored.w, stored.uncapped, {}
    if kept.sum() >= MIN_REPLICAS:
        for p, gap in dict.fromkeys((key[1], key[3]) for key in keys if key[0] == MOMENT):
            ests = [lp_norm(reduced, p, n, gap) if gap else w_moment(reduced, p, n)
                    for n in range(cfg.n_max - gap + 1)]
            fits[p, gap] = assert_family_matches_numpy(ests, family_rows(w[kept], p, gap))
        for _, p, rho, n in (key for key in keys if key[0] == BRACKET):
            terms = rho ** np.arange(n + 1) * np.diff(w[:, : n + 2], axis=1)
            q_norm = np.mean(np.sqrt((terms[kept] * terms[kept]).sum(axis=1)) ** p)
            if q_norm ** (1 / p) > 1e-6:  # increments above rounding: A_hat_n is no cancellation residue
                sc = burkholder_sandwich(reduced, p, rho, n)
                a_norm = np.mean(np.abs(terms[kept].sum(axis=1)) ** p)
                assert close(sc.a_norm, a_norm ** (1 / p)) and close(sc.q_norm, q_norm ** (1 / p)), (p, rho, n)
    undeclared = (MOMENT, 2.0, 0, cfg.n_max)
    with pytest.raises(ParameterError, match=re.escape(repr(undeclared))):
        lp_norm(reduced, 2.0, 0, cfg.n_max)
    assert undeclared not in reduced.partials
    return fits


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                    reason="forked workers need os.fork and os.sched_getaffinity")
class TestWorkerReductions:
    """Workers reduce each block as the stored batch's reducer does, whatever the worker count."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(reduced_configs())
    def test_drawn_batches_on_small_blocks(self, drawn):
        cfg, keys = drawn
        with pytest.MonkeyPatch.context() as mp:
            # 64-row blocks, so a few hundred rows make three to seven blocks for three workers
            mp.setattr(simulate, "BLOCK_ROWS", 64)
            assert_workers_reduce_the_stored_batch(cfg, keys, mp)

    def test_capped_and_extinct_rows_past_a_partial_block(self, monkeypatch):
        cfg = small_cfg(env=TWO_LAWS, n_max=10, replicas=3 * BLOCK_ROWS + 5, pop_cap=1000)
        batch = run(cfg)
        assert {STATUS_EXTINCT, STATUS_CAPPED, STATUS_COMPLETED} <= set(batch.status.tolist())
        assert_workers_reduce_the_stored_batch(cfg, reducer_keys(cfg.n_max, 4), monkeypatch)

    def test_fitted_families_at_gw_binarys_gap(self, monkeypatch):
        # gap 20 of n_max 30, as gw_binary.cfg: the heuristic bias admits a window at both p
        cfg = small_cfg(n_max=30, replicas=2 * BLOCK_ROWS + 100)
        fits = assert_workers_reduce_the_stored_batch(cfg, reducer_keys(cfg.n_max, 20), monkeypatch)
        assert fits[1.5, 20] is not None and fits[2.0, 20] is not None

    def test_run_ignores_the_rho_grid(self):
        # the benchmark still passes a rho grid; it changes no status and no partial
        keys = reducer_keys(12, 4)
        with_grid = run(small_cfg(rho_grid=(1.1, 1.3)), threads=2, reductions=keys)
        assert with_grid.rho_grid == () and with_grid.a_hat.size == 0
        assert_same_batch(with_grid, run(small_cfg(), reductions=keys), keys)


def record_maps(monkeypatch):
    """The size of every mapping simulate makes, in order."""
    maps, real = [], simulate.mmap.mmap
    monkeypatch.setattr(simulate, "mmap", types.SimpleNamespace(
        mmap=lambda fd, size: maps.append(size) or real(fd, size)))
    return maps


class TestBlockMemory:
    def test_an_annealed_block_holds_its_uniforms_and_per_row_scratch(self):
        # three blocks of 40 generations, filled by run's per-block function into outputs allocated untraced
        cfg = small_cfg(env=TWO_LAWS, n_max=40, replicas=3 * BLOCK_ROWS, pop_cap=10**7)
        support, _ = _law_table(TWO_LAWS.states)
        _, fill = simulate._block_filler(cfg)
        w = np.empty((cfg.n_max + 1, BLOCK_ROWS)).T
        status, status_gen = np.empty((3, BLOCK_ROWS), np.int8), np.empty((3, BLOCK_ROWS), np.int32)
        fill(0, w, status[0], status_gen[0])
        _, peak = traced_peak(lambda: [fill(block, w, status[block], status_gen[block]) for block in range(3)])
        assert {STATUS_EXTINCT, STATUS_CAPPED} <= set(status.ravel().tolist())
        # choice's uniforms, a byte per state for the states and for one comparison
        # mask, then per generation one law's counts and a few row vectors; a rows x
        # (n_max + 1) float64 matrix of log P_n alone would pass it
        uniforms = 8 * BLOCK_ROWS * cfg.n_max
        bound = uniforms + 2 * BLOCK_ROWS * cfg.n_max + 8 * BLOCK_ROWS * (support.size + 8)
        assert peak <= bound + SLACK_BYTES, (peak, bound)


    def test_a_reduced_run_holds_one_block_whatever_the_batch_size(self, monkeypatch):
        # one worker, so tracemalloc sees every block; the suites that read a batch
        set_cpus(monkeypatch, 1)
        maps = record_maps(monkeypatch)
        n_max = 12
        overrides = {"n_max": n_max, "gap": 4, "suites": ["annealed-rate", "burkholder", "identity"]}

        def peak(blocks):
            cfg = load_config(ROOT / "configs" / "gw_binary.cfg", overrides | {"replicas": blocks * BLOCK_ROWS})
            maps.clear()
            (report, _, _), peak = traced_peak(lambda: run_experiment(cfg))
            assert len(report["checks"]) == 20
            # one mapping holds statuses and partials, not one float64 column of the batch
            assert len(maps) == 1 and sum(maps) < 8 * cfg.replicas, maps
            return peak

        peak(4)
        small, large = peak(4), peak(16)
        assert abs(large - small) < (n_max + 1) * BLOCK_ROWS * 8, (small, large)

    def test_a_run_maps_its_partials_and_statuses_once(self, monkeypatch):
        maps = record_maps(monkeypatch)
        cfg = small_cfg(replicas=2 * BLOCK_ROWS + 7)
        keys = [(MOMENT, 2.0, 1, 3), (BRACKET, 2.0, 1.2, 3), (IDENTITY, 1.2, 3)]
        batch = run(cfg, reductions=keys)
        family = [(MOMENT, 2.0, n, 3) for n in range(cfg.n_max - 2)]
        # per block: the moment's family of ten, each with its sum and its ten products, a
        # bracket's two sides, each with its sum and its two products, and an identity's three
        # maxima; then status_gen's int32 and status's int8 per row, in one mapping
        assert maps == [8 * 3 * (10 * 11 + 2 * 3 + 3) + 5 * cfg.replicas]
        assert batch.w.shape == (0, cfg.n_max + 1) and list(batch.partials) == family + keys[1:]
        assert all(batch.partials[key] is batch.partials[family[0]] for key in family)
        for view in (batch.status_gen, batch.status, *batch.partials.values()):
            assert view.flags.aligned

    def test_a_run_holds_no_w_at_gw_binarys_size(self, monkeypatch):
        # one worker, so tracemalloc sees every block; W would take 100,000 x 31 float64 (24.8 MB)
        set_cpus(monkeypatch, 1)
        maps = record_maps(monkeypatch)
        cfg = small_cfg(n_max=30, replicas=100_000)
        batch, peak = traced_peak(lambda: run(cfg))
        w_bytes = 8 * cfg.replicas * (cfg.n_max + 1)
        assert maps == [5 * cfg.replicas] and batch.w.size == 0
        # one private block of W, 1 MB, and its per-row scratch
        assert peak < w_bytes / 10, (peak, w_bytes)

    def test_sub_block_products_equal_whole_block_products(self, monkeypatch):
        # bracket sums add up PRODUCT_ROWS rows at a time, so they pin the A_hat and Q products
        # only where a block has one uncapped row, whose products its sums are; identity maxima
        # do not depend on the order of the rows
        batch = stored_batch(small_cfg(replicas=3 * BLOCK_ROWS))
        one_row = np.full(batch.replicas, STATUS_CAPPED, dtype=np.int8)
        one_row[[5, BLOCK_ROWS + 1500, 3 * BLOCK_ROWS - 1]] = STATUS_COMPLETED
        brackets = bracket_keys((1.5, 2.0), (1.0, 1.1, 1.3), (0, 5, batch.n_max - 1))
        identities = [(IDENTITY, rho, n) for rho in (1.1, 1.3, 1.7) for n in (1, 5, batch.n_max - 2)]

        def reduced(rows):
            monkeypatch.setattr(simulate, "PRODUCT_ROWS", rows)
            sparse, full = dataclasses.replace(batch, status=one_row), dataclasses.replace(batch)
            assert reduce_batch(sparse, brackets) == brackets and reduce_batch(full, identities) == identities
            return sparse.partials | full.partials

        sub, whole = reduced(PRODUCT_ROWS), reduced(BLOCK_ROWS)
        assert all(sub[key].any() for key in brackets)
        for key in brackets + identities:
            assert np.array_equal(sub[key], whole[key]), key


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


def block_sums(batch, terms):
    """Plain numpy: per block, the sum of each row value terms[k][i] over the uncapped rows i, then
    its products with each terms[j][i]: the reducer's K x (K + 1) layout."""
    x = np.where(batch.uncapped, np.atleast_2d(terms), 0.0)
    blocks = [x[:, lo : lo + BLOCK_ROWS] for lo in range(0, batch.replicas, BLOCK_ROWS)]
    return np.stack([np.column_stack([b.sum(axis=1), b @ b.T]) for b in blocks])


class TestBracketSums:
    def test_matches_per_row_sums_across_row_blocks(self):
        # 10,001 rows: two full blocks of BLOCK_ROWS and a partial third
        batch = stored_batch(small_cfg(n_max=6, replicas=10_001))
        assert batch.replicas > 2 * BLOCK_ROWS and batch.replicas % BLOCK_ROWS
        keys = [(BRACKET, p, rho, n) for p in (1.5, 2.0) for rho in (1.1, 1.3) for n in range(batch.n_max)]
        assert reduce_batch(batch, keys) == keys
        for key in keys:
            _, p, rho, n = key
            terms = rho ** np.arange(n + 1) * np.diff(batch.w[:, : n + 2], axis=1)
            want = block_sums(batch, [np.abs(terms.sum(axis=1)) ** p, np.sqrt((terms * terms).sum(axis=1)) ** p])
            assert batch.partials[key].shape == want.shape
            assert np.allclose(batch.partials[key], want, rtol=1e-12, atol=0), key

    def test_partials_are_held_per_batch(self):
        batch = stored_batch(small_cfg(replicas=50))
        first, second = (BRACKET, 2.0, 1.2, 3), (BRACKET, 2.0, 1.5, 0)
        assert reduce_batch(batch, [first, first, second]) == [first, second]
        held = batch.partials[first]
        assert partials(batch, first) is held
        # a miss reduces that key's family alone and keeps the others
        partials(batch, (MOMENT, 2.0, 1, 3))
        assert list(batch.partials) == [first, second] + [(MOMENT, 2.0, n, 3) for n in range(batch.n_max - 2)]
        assert batch.partials[first] is held

    def test_scratch_is_one_block_of_increments(self):
        batch = stored_batch(small_cfg(replicas=6 * BLOCK_ROWS))
        # more keys than increments a row: a K-row temporary per row of the batch would break the bound
        keys = [(BRACKET, 2.0, rho, n) for rho in (1.0, 1.1, 1.3) for n in range(batch.n_max)]
        top = batch.n_max - 1
        held, peak = traced_peak(lambda: reduce_batch(batch, keys))
        assert len(held) == len(keys) > top + 2
        # per PRODUCT_ROWS rows, four rows a key: its two sides, and its A_hat and Q^2 products
        # (or the last sub-block's sides while the next are made); and the increments and
        # W_N - W_k buffers, top + 1 rows each. A whole block's A_hat and Q^2 break the bound
        scratch = 8 * PRODUCT_ROWS * (4 * len(keys) + 2 * (top + 1))
        assert peak <= scratch + SLACK_BYTES, (peak, scratch)

    def test_sides_match_numpy_on_a_capped_batch(self):
        # two full blocks of BLOCK_ROWS and a partial third, with capped rows
        batch = stored_batch(small_cfg(env=TWO_LAWS, n_max=8, replicas=10_001, pop_cap=1000))
        kept = batch.uncapped
        assert batch.replicas % BLOCK_ROWS and 0 < batch.capped_fraction and kept.sum() >= MIN_REPLICAS
        keys = bracket_keys((1.5, 2.0), (1.0, 1.2), (0, 4, batch.n_max - 1))
        assert reduce_batch(batch, keys) == keys
        for key in keys:
            _, p, rho, n = key
            terms = rho ** np.arange(n + 1) * np.diff(batch.w[kept, : n + 2], axis=1)
            x = np.column_stack([np.abs(terms.sum(axis=1)) ** p, np.sqrt((terms * terms).sum(axis=1)) ** p])
            means, covariance, used = _row_moments(batch, key)
            products = x.T @ x / used
            assert used == len(x) and close(means, x.mean(axis=0)), key
            assert close(np.sqrt(covariance.diagonal()), x.std(axis=0, ddof=1) / math.sqrt(used),
                         np.sqrt(products.diagonal() / used)), key
            assert close(covariance, np.cov(x, rowvar=False, ddof=1) / used, np.abs(products) / used), key
            sc = burkholder_sandwich(batch, p, rho, n)
            norms = means ** (1 / p)
            assert close([sc.a_norm, sc.q_norm], x.mean(axis=0) ** (1 / p)), key
            # the delta method: sd(x)/sqrt(N) times d(mean^(1/p))/d(mean)
            delta = x.std(axis=0, ddof=1) / math.sqrt(used) * norms / (p * means)
            assert close([sc.a_stderr, sc.q_stderr], delta, np.sqrt(products.diagonal() / used) * norms / (p * means))

    def test_a_lone_key_pass_equals_its_rows_of_a_multi_key_pass(self):
        # two full blocks of BLOCK_ROWS and a partial third
        batch = stored_batch(small_cfg(replicas=2 * BLOCK_ROWS + 7))
        keys = [(BRACKET, 2.0, rho, n) for rho in (1.0, 1.1, 1.3) for n in (0, 5, batch.n_max - 1)]
        reduce_batch(batch, keys)
        for key in keys:
            lone = dataclasses.replace(batch)
            assert reduce_batch(lone, [key]) == [key]
            assert np.array_equal(lone.partials[key], batch.partials[key]), key

    def test_sandwiches_hold_no_per_row_array(self):
        # twelve blocks: per-row sums of nine (rho, n) would take 2 x 9 x 8 bytes a row
        batch = stored_batch(small_cfg(replicas=12 * BLOCK_ROWS))
        rhos, ns = (1.0, 1.1, 1.3), (0, 5, batch.n_max - 1)
        items, peak = traced_peak(lambda: relations.sandwiches(batch, bracket_keys((1.5, 2.0), rhos, ns)))
        pairs, keys = len(rhos) * len(ns), 2 * len(rhos) * len(ns)
        # one block's A_hat and Q^2, a row of terms and one product's increments, and the capped masks
        scratch = 8 * BLOCK_ROWS * (2 * pairs + 2) + 8 * PRODUCT_ROWS * max(ns) + 2 * batch.replicas
        assert peak <= scratch + SLACK_BYTES, (peak, scratch)
        assert len(items) == 18

    def test_keys_outside_the_pass_are_left_out(self):
        batch = stored_batch(small_cfg(replicas=50))
        bad = [(BRACKET, 2.0, *key) for key in [(0.5, 2), (math.inf, 2), (math.nan, 2), (1.2, -1), (1.2, batch.n_max)]]
        good = (BRACKET, 2.0, 1.0, batch.n_max - 1)
        assert reduce_batch(batch, bad + [good]) == [good]
        assert list(batch.partials) == [good]
        assert reduce_batch(batch, bad) == [] and list(batch.partials) == [good]


def reference_residual(batch, rho, n, a_hat_n):
    """The residual as one whole-batch expression per key, with A_hat_n given.

    The accumulator form is evaluated on every row at once, in the order of
    the identity's formula; the telescoped sum is the key's lone product (see
    lone_product) over W_N - W_k, as the reducer forms it.
    """
    w = batch.w
    w_proxy = w[:, batch.n_max]
    lhs = lone_product(rho, n, w_proxy[:, None] - w)
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


@st.composite
def small_laws(draw):
    """A law on at most four of 0..3 with extra mass at 1, so its mean lies in [0.2, 2.6], or a point mass."""
    if draw(st.booleans()):
        return OffspringLaw({draw(st.sampled_from((1, 2))): 1.0})
    counts = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    counts[1] += draw(st.integers(1, 12))
    return OffspringLaw({v: c / sum(counts) for v, c in enumerate(counts) if c})


@st.composite
def small_batches(draw):
    """A batch of at most 300 rows to n_max <= 8 on a drawn mixture (annealed or quenched) or fixed path."""
    n_max = draw(st.integers(2, 8))
    laws = draw(st.lists(small_laws(), min_size=1, max_size=3))
    kind = draw(st.sampled_from(("annealed", "quenched", "fixed")))
    if kind == "fixed":
        env = FixedPath(draw(st.lists(small_laws(), min_size=n_max, max_size=n_max)))
    else:
        weights = draw(st.lists(st.integers(1, 20), min_size=len(laws), max_size=len(laws)))
        env = IIDMixture(laws, [x / sum(weights) for x in weights])
    return stored_batch(SimConfig(
        env=env, mode="annealed" if kind == "annealed" else "quenched", n_max=n_max,
        replicas=draw(st.integers(1, 300)), master_seed=draw(st.integers(0, 2**32 - 1)),
        path_seed=draw(st.integers(0, 2**32 - 1)) if kind == "quenched" else None,
    ))


def lone_product(rho, n, terms):
    """sum_{k<=n} rho^k terms[i, k] on every row i, as the reducer forms A_hat_n and A_n: the
    padded two-row product of _weights with PRODUCT_ROWS rows' terms at a time, as C-order
    columns, zero past the batch's last row."""
    weights, sums = _weights([(rho, n)], n), []
    for lo in range(0, len(terms), PRODUCT_ROWS):
        rows = terms[lo : lo + PRODUCT_ROWS, : n + 1].T
        columns = np.zeros((n + 1, PRODUCT_ROWS))
        columns[:, : rows.shape[1]] = rows
        sums.append((weights @ columns)[0, : rows.shape[1]])
    return np.concatenate(sums)


def lone_a_hat(batch, rho, n):
    """A_hat_n(rho) on every row, the key's lone product over the increments W_{k+1} - W_k."""
    return lone_product(rho, n, np.diff(batch.w[:, : n + 2], axis=1))


class TestIdentityPass:
    """The reducer's residuals against the whole-batch reference and a row-by-row fsum oracle."""

    RHOS = (1.0, 1.1, 1.3, 1.7)

    @pytest.fixture(scope="class")
    def batch(self):
        # two full blocks of BLOCK_ROWS and a partial third
        batch = stored_batch(small_cfg(replicas=10_001))
        assert batch.replicas > 2 * BLOCK_ROWS and batch.replicas % BLOCK_ROWS
        return batch

    def keys(self, batch):
        return [(IDENTITY, rho, n) for rho in self.RHOS for n in (0, 1, 6, batch.n_max - 2, batch.n_max - 1)]

    def test_primed_cold_and_reference_agree_bit_for_bit(self, batch):
        primed = dataclasses.replace(batch)
        held = reduce_batch(primed, self.keys(batch))
        # rho = 1 and n = n_max - 1 are left out, for the per-key call to refuse
        assert held == [(kind, rho, n) for kind, rho, n in self.keys(batch) if rho > 1.0 and n < batch.n_max - 1]
        for _, rho, n in held:
            residual = increment_identity_check(primed, rho, n)
            cold = dataclasses.replace(batch)
            assert increment_identity_check(cold, rho, n) == residual
            assert list(cold.partials) == [(IDENTITY, rho, n)]
            assert reference_residual(batch, rho, n, lone_a_hat(batch, rho, n)) == residual, (rho, n)

    def test_matches_a_row_by_row_fsum_oracle(self, batch):
        for rho, n in ((1.1, 0), (1.3, 6), (1.7, batch.n_max - 2)):
            want = fsum_residual(batch, rho, n)
            assert want <= 1e-12
            assert abs(increment_identity_check(batch, rho, n) - want) <= 1e-12

    def test_keys_outside_the_pass_are_left_out(self, batch):
        bad = [(1.0, 2), (0.5, 2), (math.inf, 2), (math.nan, 2), (1.2, -1), (1.2, batch.n_max - 1)]
        fresh = dataclasses.replace(batch)
        assert reduce_batch(fresh, [(IDENTITY, *key) for key in bad]) == [] and fresh.partials == {}

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(small_batches(), st.data())
    def test_drawn_batches_match_the_reference_and_lone_key_passes(self, batch, data):
        keys = data.draw(st.lists(st.tuples(st.just(IDENTITY), st.floats(1.01, 3.0), st.integers(0, batch.n_max - 2)),
                                  min_size=1, max_size=6))
        assert reduce_batch(batch, keys) == list(dict.fromkeys(keys))
        for key in dict.fromkeys(keys):
            _, rho, n = key
            residual = increment_identity_check(batch, rho, n)
            assert reference_residual(batch, rho, n, lone_a_hat(batch, rho, n)) == residual, (rho, n)
            lone = dataclasses.replace(batch)
            assert increment_identity_check(lone, rho, n) == residual
            assert residual <= IDENTITY_TOL

    def test_holds_no_per_row_array(self):
        # twelve blocks: per-row sums of eighteen keys would take 2 x 18 x 8 bytes a row
        batch = stored_batch(small_cfg(n_max=8, replicas=12 * BLOCK_ROWS))
        keys = [(IDENTITY, rho, n) for rho in (1.1, 1.2, 1.3, 1.5, 1.7, 1.9) for n in (0, 3, 6)]
        top = 6
        held, peak = traced_peak(lambda: reduce_batch(batch, keys))
        assert len(held) == len(keys)
        # one block's A_hat of every key, its W_N - W_k and six key rows (A_n, the right-hand
        # side and its terms' temporaries), and one product's increments
        scratch = 8 * BLOCK_ROWS * (len(keys) + (top + 1) + 6) + 8 * PRODUCT_ROWS * (top + 1)
        assert peak <= scratch + SLACK_BYTES, (peak, scratch)

    def test_scratch_is_one_sub_block_of_terms(self):
        batch = stored_batch(small_cfg(replicas=6 * BLOCK_ROWS))
        # more keys than terms a row: a K-row temporary per row of a block would break the bound
        keys = [(IDENTITY, rho, n) for rho in (1.1, 1.2, 1.3) for n in range(batch.n_max - 1)]
        top = batch.n_max - 2
        held, peak = traced_peak(lambda: reduce_batch(batch, keys))
        assert len(held) == len(keys) > top + 2
        # per PRODUCT_ROWS rows, three rows a key: the right-hand side, A_n and their difference
        # (the right-hand side's terms come and go before A_n); and the increments and W_N - W_k
        # buffers, top + 1 rows each. A whole block's A_hat and W_N - W_k break the bound
        scratch = 8 * PRODUCT_ROWS * (3 * len(keys) + 2 * (top + 1))
        assert peak <= scratch + SLACK_BYTES, (peak, scratch)


class TestIdentity:
    def test_residual_at_machine_precision(self, gw_batch):
        for rho in (1.1, 1.3):
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
        batch = stored_batch(cfg)
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

    def test_w_is_read_only_when_stored_and_loaded(self, tmp_path):
        batch = stored_batch(small_cfg(replicas=20))
        target = tmp_path / "batch.npz"
        batch.save(target)
        for b in (batch, TrajectoryBatch.load(target)):
            with pytest.raises(ValueError, match="read-only"):
                b.w[0, 1] = 2.0
            assert b.partials == {}

    def test_save_refuses_a_batch_from_run(self, tmp_path):
        # its partials are not dumped, so its dump would load back with no reduction in it
        batch = run(small_cfg(), reductions=[(MOMENT, 2.0, 2, 3)])
        with pytest.raises(ParameterError, match="stores w"):
            batch.save(tmp_path / "batch.npz")
        assert not (tmp_path / "batch.npz").exists()

    def test_load_rejects_unknown_format(self, tmp_path, monkeypatch):
        batch = stored_batch(small_cfg(replicas=5))
        target = tmp_path / "batch.npz"
        batch.save(target)
        monkeypatch.setattr("bprelab.simulate._DUMP_FORMAT", 99)
        with pytest.raises(ParameterError, match="format"):
            TrajectoryBatch.load(target)
