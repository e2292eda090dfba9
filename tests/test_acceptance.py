"""Acceptance suite: one test per shipping criterion, numbered test_acN_*.

The conftest hook prints an AC-N PASS/FAIL line per test, so a plain pytest
run doubles as the release checklist. Later criteria reuse batches built by
earlier ones (AC-8 audits every batch the suite produced), so this module
assumes pytest's default in-file execution order.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from bprelab import (
    FitUnavailableError,
    IIDMixture,
    OffspringLaw,
    SimConfig,
    annealed_critical_conditions,
    annealed_lp_criterion,
    annealed_moment_table,
    annealed_rates,
    annealed_u,
    burkholder_sandwich,
    fit_decay,
    growth_envelope_check,
    increment_identity_check,
    lp_norm,
    p2_closed_forms,
    quenched_bounds,
    quenched_increment_second_moments,
    quenched_moments,
    quenched_p2_tail,
    recursion_inequality_slacks,
    run,
)
from bprelab.cli import main as cli_main
from bprelab.environment import EnvPath
from bprelab.estimators import ROUNDOFF_DISTANCE
from bprelab.simulate import BRACKET, IDENTITY, MOMENT

SMALL_LAWS = [
    {1: 1.0},
    {2: 1.0},
    {3: 1.0},
    {0: 0.25, 2: 0.75},
    {0: 0.5, 1: 0.5},
    {1: 0.5, 3: 0.5},
    {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25},
    {0: 0.125, 3: 0.875},
]

# batches built inside earlier acceptance tests, each with its rho values, audited by AC-8
_BATCHES = {}


def identity_keys(n_max, rhos):
    """The accumulator identities AC-8 audits on a batch: each rho > 1 at n = 1, n_max // 2 and n_max - 2."""
    return [(IDENTITY, rho, n) for rho in rhos if rho > 1.0 for n in sorted({1, n_max // 2, n_max - 2})]


def laws(pmfs):
    return [OffspringLaw(d) for d in pmfs]


def close_rel(got, want, rel=1e-9):
    return abs(got - want) <= rel * max(1.0, abs(want))


def test_ac1_exact_tables_match_enumeration():
    t0 = time.perf_counter()
    paths = [
        [SMALL_LAWS[3], SMALL_LAWS[5], SMALL_LAWS[1]],
        [SMALL_LAWS[4], SMALL_LAWS[2], SMALL_LAWS[7]],
        [SMALL_LAWS[0], SMALL_LAWS[6], SMALL_LAWS[3]],
    ]
    for pmfs in paths:
        table = quenched_moments(EnvPath(laws(pmfs)), r_max=4, n_max=3)
        expected = oracles.path_z_moments(pmfs, 4, 3)
        for n in range(4):
            for r in range(5):
                assert close_rel(float(table.values[n, r]), float(expected[n][r])), (pmfs, n, r)

    mixtures = [
        ([SMALL_LAWS[5], SMALL_LAWS[1]], [0.5, 0.5]),
        ([SMALL_LAWS[3]], [1.0]),
        ([SMALL_LAWS[4], SMALL_LAWS[6], SMALL_LAWS[2]], [0.25, 0.25, 0.5]),
    ]
    for pmfs, weights in mixtures:
        env = IIDMixture(laws(pmfs), weights)
        for s in (0, 1, 2):
            table = annealed_moment_table(env, float(s), r_max=4, n_max=3)
            for r in range(1, 5):
                u = annealed_u(env, float(s), r, 3)
                for n in range(4):
                    # raw table rows hold E[P^-s Z^r] = E[P^-(s-r) W^r]
                    raw = oracles.annealed_weighted_w_moment(pmfs, weights, s - r, r, n)
                    assert close_rel(float(table.values[n, r]), float(raw)), (pmfs, s, r, n)
                    w = oracles.annealed_weighted_w_moment(pmfs, weights, s, r, n)
                    assert close_rel(float(u[n]), float(w)), (pmfs, s, r, n)
    assert time.perf_counter() - t0 < 1.0


def test_ac2_two_state_closed_forms(two_state_env):
    t0 = time.perf_counter()
    forms = p2_closed_forms(two_state_env)
    assert close_rel(forms.sup_w2(), 1.25)
    for n in range(12):
        assert close_rel(forms.tail(n), 0.25 * 0.5**n)
    for rho in (1.0, 1.1, 1.3):
        assert close_rel(forms.sup_a_hat2(rho), 0.125 / (1.0 - rho * rho / 2.0))
    assert forms.sup_a_hat2(math.sqrt(2.0)) == math.inf
    assert time.perf_counter() - t0 < 1.0


def test_ac3_bundled_config_recovers_the_rate(tmp_path):
    t0 = time.perf_counter()
    assert cli_main(["run", "configs/gw_binary.cfg", "--out", str(tmp_path / "a"), "--threads", "4"]) == 0
    assert cli_main(["run", "configs/gw_binary.cfg", "--out", str(tmp_path / "b"), "--threads", "4"]) == 0
    elapsed = time.perf_counter() - t0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    fit = report["suites"]["annealed-rate"]["per_p"][0]["fit"]
    target = math.sqrt(1.5)
    assert fit["ci_low"] <= target <= fit["ci_high"]
    assert fit["ci_high"] - fit["ci_low"] < 0.08
    assert fit["window"][1] <= 10
    rerun = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rerun["suites"]["annealed-rate"] == report["suites"]["annealed-rate"]
    assert elapsed < 60.0


def test_ac4_quenched_tail_matches_simulation(m23_env):
    t0 = time.perf_counter()
    # Z_n >= 2^n passes the default pop_cap by generation 24 on every row, and an estimate
    # drops capped rows; a cap above 3^30 keeps every row simulated to n_max
    cfg = SimConfig(
        env=m23_env,
        mode="quenched",
        n_max=30,
        replicas=30_000,
        master_seed=424,
        path_seed=7,
        pop_cap=10**15,
    )
    ns, rhos = (0, 2, 4, 6), (1.1,)
    batch = run(cfg, threads=2,
                reductions=[(MOMENT, 2.0, n, 30 - n) for n in ns] + identity_keys(cfg.n_max, rhos))
    _BATCHES["quenched-m23"] = batch, rhos
    increments = quenched_increment_second_moments(batch.path, 30)
    for n in ns:
        # E_xi|W_30 - W_n|^2 = tail(n) - tail(30); on this path both the
        # enclosure and the increment sum give it exactly
        exact = quenched_p2_tail(batch.path, n, 29).lower
        assert exact == pytest.approx(float(increments[n:].sum()), abs=1e-15)
        est = lp_norm(batch, 2.0, n, 30 - n)
        assert est.replicas_used == cfg.replicas
        # the laws here are deterministic, so the MC side is pure float
        # roundoff; the squared-distance floor keeps 4 stderr meaningful
        assert abs(est.value - exact) <= 4 * est.stderr + ROUNDOFF_DISTANCE**2, (n, est.value, exact)
    assert time.perf_counter() - t0 < 60.0


def random_supercritical_mixture(rng):
    while True:
        k = int(rng.integers(2, 4))
        states = []
        for _ in range(k):
            size = int(rng.integers(2, 4))
            values = rng.choice(6, size=size, replace=False)
            probs = rng.dirichlet(np.ones(size))
            states.append(OffspringLaw({int(v): float(q) for v, q in zip(values, probs)}))
        weights = [float(w) for w in rng.dirichlet(np.ones(k))]
        env = IIDMixture(states, weights)
        if env.is_supercritical:
            return env


def test_ac5_rate_orderings_hold_everywhere():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(50):
        env = random_supercritical_mixture(rng)
        for p in (1.2, 1.5, 1.8, 2.0, 2.5, 3.0):
            rho0, rhoc = annealed_rates(env, p)
            _, quenched_critical = quenched_bounds(env, p)
            assert rhoc <= quenched_critical + 1e-12, (env, p)
            if p >= 2.0:
                assert rho0 == rhoc, (env, p)
            else:
                cond = annealed_critical_conditions(env, p)
                if cond.tilt_value > 0.0:
                    assert rho0 <= rhoc + 1e-12, (env, p)
    assert time.perf_counter() - t0 < 1.0


def test_ac6_burkholder_sandwich_at_scale(gw_env):
    t0 = time.perf_counter()
    cfg = SimConfig(
        env=gw_env,
        mode="annealed",
        n_max=10,
        replicas=100_000,
        master_seed=606,
    )
    ps, rhos = (1.5, 3.0), (1.0, 1.05)
    keys = [(BRACKET, p, rho, 8) for p in ps for rho in rhos] + identity_keys(cfg.n_max, rhos)
    batch = run(cfg, threads=2, reductions=keys)
    _BATCHES["gw-large"] = batch, rhos
    for p in ps:
        for rho in rhos:
            check = burkholder_sandwich(batch, p, rho, 8)
            assert check.ok, (p, rho, vars(check))
    assert time.perf_counter() - t0 < 90.0


def test_ac7_recursion_and_envelope(gw_env, two_state_env):
    t0 = time.perf_counter()
    for env in (gw_env, two_state_env):
        for s in (0, 1, 2):
            for r in (3, 4):
                slacks = recursion_inequality_slacks(env, float(s), r, 12)
                assert float(slacks.min()) >= -1e-12, (env, s, r)
            for r in (2, 3, 4):
                assert growth_envelope_check(env, float(s), r, 12), (env, s, r)
    assert time.perf_counter() - t0 < 1.0


def test_ac9_degenerate_and_subcritical_gates(degenerate_batch, capsys):
    t0 = time.perf_counter()
    for p in (1.5, 2.0):
        for n in (0, 3, 6):
            assert lp_norm(degenerate_batch, p, n, 10).value <= 1e-20
    estimates = [lp_norm(degenerate_batch, 2.0, n, 10) for n in range(9)]
    with pytest.raises(FitUnavailableError):
        fit_decay(estimates)
    assert cli_main(["run", "configs/subcritical.cfg"]) == 1
    assert cli_main(["rates", "configs/subcritical.cfg"]) == 1
    assert "bprelab: error:" in capsys.readouterr().err
    criterion = annealed_lp_criterion(
        IIDMixture([OffspringLaw({0: 0.5, 1: 0.5}), OffspringLaw({4: 1.0})], [0.5, 0.5]),
        2.0,
    )
    assert criterion.mean_power_value >= 1.0
    assert criterion.holds is False
    assert time.perf_counter() - t0 < 1.0


def test_ac10_supercritical_rho_makes_the_series_grow(gw_env):
    t0 = time.perf_counter()
    rho = 1.2 * math.sqrt(1.5)
    forms = p2_closed_forms(gw_env)
    exact = [rho ** (2 * n) * forms.tail(n) for n in range(2, 11)]
    assert all(b > a for a, b in zip(exact, exact[1:]))

    cfg = SimConfig(
        env=gw_env,
        mode="annealed",
        n_max=30,
        replicas=20_000,
        master_seed=1010,
    )
    rhos = (1.25,)
    batch = run(cfg, threads=2,
                reductions=[(MOMENT, 2.0, n, 20) for n in range(2, 11)] + identity_keys(cfg.n_max, rhos))
    _BATCHES["gw-series"] = batch, rhos
    estimates = [lp_norm(batch, 2.0, n, 20) for n in range(2, 11)]
    curves = np.array(
        [rho ** (2 * e.n) * np.asarray(e.batch_values) for e in estimates]
    )
    steps = np.diff(curves, axis=0)
    step_mean = steps.mean(axis=1)
    step_se = steps.std(axis=1, ddof=1) / math.sqrt(curves.shape[1])
    assert np.all(step_mean + 4 * step_se > 0), (step_mean, step_se)
    rise = curves[-1] - curves[0]
    assert rise.mean() - 4 * rise.std(ddof=1) / math.sqrt(len(rise)) > 0
    assert time.perf_counter() - t0 < 10.0


def test_ac8_increment_identity_on_every_batch(gw_batch, degenerate_batch):
    produced = dict(_BATCHES)
    for name in ("quenched-m23", "gw-large", "gw-series"):
        assert name in produced, "earlier acceptance tests should have registered it"
    # the conftest batches store w, so their identities are reduced here
    produced["gw-shared"] = gw_batch, (1.1, 1.3)
    produced["degenerate"] = degenerate_batch, (1.05,)
    for name, (batch, rhos) in produced.items():
        keys = identity_keys(batch.n_max, rhos)
        assert keys, name
        for _, rho, n in keys:
            residual = increment_identity_check(batch, rho, n)
            assert residual < 1e-9, (name, rho, n, residual)
