"""Suite orchestration: run configured check suites and write versioned reports.

A report is deterministic for a given config (the timings block aside): suites
execute in declared order, every verdict lands in `checks` as
{id, suite, statement, passed, observed}, and the exit code is 0 when all
checks pass, 2 when any fails, 1 for config or precondition errors (decided
by the CLI, which maps raised errors).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from . import estimators, exact_moments, rates
from ._version import __version__
from .config import ExperimentConfig
from .environment import EnvPath, Environment, FixedPath, IIDMixture
from .errors import BpreLabError, ConfigError, FitUnavailableError, ParameterError
from .estimators import LpEstimate, fit_decay, lp_norm
from .simulate import (
    MODE_ANNEALED,
    MODE_QUENCHED,
    SimConfig,
    TrajectoryBatch,
    increment_identity_check,
    quenched_path,
    run,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

EXACT_TABLE_ORDER = 4
EXACT_TABLE_LEN = 12


class _Context:
    """Per-experiment scratch: cached batches, checks, and CSV side tables."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.checks: list[dict] = []
        self.csv: dict[str, list[str]] = {}
        self._batches: dict = {}

    # -- verdict and side-table collection ------------------------------

    def check(self, check_id: str, statement: str, passed: bool, **observed) -> None:
        """Record a verdict; the suite is the check id's first dotted part."""
        self.checks.append(
            {
                "id": check_id,
                "suite": check_id.split(".")[0],
                "statement": statement,
                "passed": bool(passed),
                "observed": observed,
            }
        )

    def add_csv(self, name: str, header: str, rows: list[str]) -> None:
        self.csv[name] = [header] + rows

    # -- environment geometry --------------------------------------------

    @property
    def env(self) -> Environment:
        return self.cfg.env

    @property
    def is_mixture(self) -> bool:
        return isinstance(self.env, IIDMixture)

    def geo_mean(self) -> float:
        """Stationary geometric mean, or the stored path's partial version."""
        if self.is_mixture:
            return self.env.geo_mean()
        return float(np.exp(np.mean([law.log_mean for law in self.env.laws])))

    def rho_grid(self) -> tuple[float, ...]:
        """Accumulator grid: config rho list, or 3 spread points of the default grid."""
        if self.cfg.rho is not None:
            return self.cfg.rho
        grid = rates.default_rho_grid(math.sqrt(max(self.geo_mean(), 1.0)))
        return (float(grid[0]), float(grid[len(grid) // 2]), float(grid[-1]))

    @property
    def series_seed(self) -> int:
        """Seed of the realized path for diagnostics: path_seed, else master_seed."""
        return self.cfg.path_seed if self.cfg.path_seed is not None else self.cfg.master_seed

    def series_path(self, length: int) -> EnvPath:
        """The path a quenched batch at series_seed shares; a fixed path is clamped to its length."""
        if isinstance(self.env, FixedPath):
            length = min(length, len(self.env.laws))
        return quenched_path(self.env, length, self.series_seed)

    # -- cached simulation batches ----------------------------------------

    def batch(self, mode: str, **overrides) -> TrajectoryBatch:
        """The config's batch in `mode`, with SimConfig fields overridden; one run per SimConfig."""
        cfg = self.cfg
        fields = dict(
            env=cfg.env, n_max=cfg.n_max, replicas=cfg.replicas, master_seed=cfg.master_seed,
            path_seed=cfg.path_seed, pop_cap=cfg.pop_cap,
        ) | overrides
        if "rho_grid" not in fields:
            fields["rho_grid"] = self.rho_grid()
        if isinstance(cfg.env, FixedPath) and fields["n_max"] > len(cfg.env.laws):
            raise ConfigError(
                f"{cfg.source}: n_max: {fields['n_max']} exceeds "
                f"the fixed path's {len(cfg.env.laws)} states"
            )
        sim = SimConfig(mode=mode, **fields)
        if sim not in self._batches:
            self._batches[sim] = run(sim, threads=cfg.threads)
        return self._batches[sim]

    def default_mode(self) -> str:
        return MODE_ANNEALED if self.is_mixture else MODE_QUENCHED


# ---------------------------------------------------------------------------
# relations checked by both the suites and verify


def _rate_orderings(rep: rates.RateReport) -> list[tuple[str, str, bool, dict]]:
    """The proven orderings among one report's rates, as (name, statement, verdict, observed)."""
    suff, crit = rep.quenched_sufficient_bound, rep.quenched_critical
    rho0, rhoc = rep.annealed_rho0, rep.annealed_rhoc
    items = [
        ("sufficient-le-critical",
         "the sufficient quenched rate bound never exceeds the critical one",
         suff <= crit + 1e-12, {"sufficient": suff, "critical": crit}),
        ("annealed-le-quenched",
         "the annealed critical rate never exceeds the quenched critical rate",
         rhoc <= crit + 1e-12, {"annealed_rhoc": rhoc, "quenched_critical": crit}),
    ]
    pair = {"rho0": rho0, "rhoc": rhoc}
    if rep.p >= 2.0:
        items.append(("rates-collapse", "for p >= 2 the two annealed rate formulas agree",
                      math.isclose(rho0, rhoc, rel_tol=1e-12), pair))
    elif rep.condition_flags.get("tilt_positive"):
        statement = "under a positive tilt the sufficient annealed rate is below the critical one"
        items.append(("rho0-le-rhoc", statement, rho0 <= rhoc + 1e-12, pair))
    return items


def _p2_partial_sums(moments, inc, tol: float) -> tuple[bool, float]:
    """E[W_n^2] against 1 + sum_{k<n} E|W_{k+1} - W_k|^2: (verdict, worst relative error)."""
    worst = 0.0
    for n, moment in enumerate(moments):
        closed = 1.0 + _exact_segment(inc, 0, n)
        worst = max(worst, abs(moment - closed) / max(closed, 1.0))
    return worst <= tol, worst


def _within_slack(pairs, sigmas: float) -> tuple[bool, float]:
    """Each (estimate, exact) pair within sigmas standard errors: (verdict, worst excess)."""
    ok, worst = True, 0.0
    for est, exact in pairs:
        dev, slack = abs(est.value - exact), sigmas * est.stderr
        ok = ok and dev <= slack + 1e-12
        worst = max(worst, dev - slack)
    return ok, worst


def _growth_envelope(env: Environment, n: int, orders) -> tuple[bool, dict[int, bool]]:
    """Whether each order's scaled moments stay under the envelope up to max(n, 10)."""
    holds = {r: exact_moments.growth_envelope_check(env, 0.0, r, max(n, 10)) for r in orders}
    return all(holds.values()), holds


def _recursion_slack(env: Environment, n: int) -> tuple[bool, float]:
    """Least slack of the split-moment recursion (orders 3-4, s in {0, 1}) up to max(n, 10)."""
    min_slack = min(
        float(exact_moments.recursion_inequality_slacks(env, s, r, max(n, 10)).min())
        for r in (3, 4)
        for s in (0.0, 1.0)
    )
    return min_slack >= -1e-12, min_slack


# ---------------------------------------------------------------------------
# suite: rates


def _suite_rates(ctx: _Context) -> dict:
    reports = [rates.rate_report(ctx.env, p) for p in ctx.cfg.p]
    for rep in reports:
        for name, statement, passed, observed in _rate_orderings(rep):
            ctx.check(f"rates.p{rep.p:g}.{name}", statement, passed, **observed)
    ctx.add_csv(
        "rates.csv",
        "p,m_geo,quenched_sufficient_bound,quenched_critical,annealed_rho0,annealed_rhoc",
        [
            f"{rep.p!r},{rep.m_geo!r},{rep.quenched_sufficient_bound!r},"
            f"{rep.quenched_critical!r},{rep.annealed_rho0!r},{rep.annealed_rhoc!r}"
            for rep in reports
        ],
    )
    return {"reports": reports}


# ---------------------------------------------------------------------------
# suite: exact


def _exact_segment(inc: list[float] | np.ndarray, n: int, upto: int) -> float:
    return float(math.fsum(inc[n:upto]))


def _gap_sums(inc, n_max: int, gap: int) -> list[float]:
    """Exact E|W_{n+gap} - W_n|^2, the sum of the increments' second moments, per n."""
    return [_exact_segment(inc, n, n + gap) for n in range(n_max - gap + 1)]


def _exact_table(ctx: _Context, name: str, values: np.ndarray) -> dict:
    """Write values[n, j-1], the order-j moment at generation n, as CSV `name`; return its summary."""
    ctx.add_csv(
        name,
        "n,j,value",
        [f"{n},{j},{float(v)!r}" for n, row in enumerate(values) for j, v in enumerate(row, 1)],
    )
    return {
        "orders": values.shape[1],
        "n_max": len(values) - 1,
        "last_row": [float(v) for v in values[-1]],
    }


def _suite_exact(ctx: _Context) -> dict:
    tol = ctx.cfg.tolerances["exact_rel"]
    n_table = min(ctx.cfg.n_max, EXACT_TABLE_LEN)
    section: dict = {}

    if ctx.is_mixture:
        u = np.column_stack([
            exact_moments.annealed_u(ctx.env, 0.0, r, n_table)
            for r in range(1, EXACT_TABLE_ORDER + 1)
        ])
        section["annealed_table"] = _exact_table(ctx, "exact_annealed.csv", u)
        mean_err = float(np.abs(u[:, 0] - 1.0).max())
        ctx.check(
            "exact.martingale-mean",
            "the normalized population has exact mean one at every generation",
            mean_err <= tol,
            max_abs_error=mean_err,
        )
        forms = exact_moments.p2_closed_forms(ctx.env)
        section["p2_closed_forms"] = {
            "q1": forms.q1,
            "b2": forms.b2,
            "summable": forms.summable,
            "sup_w2": forms.sup_w2(),
        }
        inc = [forms.increment_second_moment(k) for k in range(n_table)]
        passed, worst = _p2_partial_sums(u[:, 1], inc, tol)
        ctx.check(
            "exact.p2-partial-sums",
            "second moments from the recursion match the closed-form partial sums",
            passed,
            max_rel_error=worst,
        )
        passed, holds = _growth_envelope(ctx.env, n_table, range(2, EXACT_TABLE_ORDER + 1))
        ctx.check(
            "exact.growth-envelope",
            "scaled moment sequences stay under the polynomial-times-base envelope",
            passed,
            orders=list(holds),
        )
        passed, min_slack = _recursion_slack(ctx.env, n_table)
        ctx.check(
            "exact.recursion-slack",
            "the split-moment recursion inequality holds with non-negative slack",
            passed,
            min_slack=min_slack,
        )

    path = None
    if isinstance(ctx.env, FixedPath) or ctx.cfg.path_seed is not None:
        path = ctx.series_path(n_table)
        qtable = exact_moments.quenched_moments(path, EXACT_TABLE_ORDER, len(path))
        section["quenched_table"] = _exact_table(ctx, "exact_quenched.csv", qtable.values[:, 1:])
        w_mean_err = float(np.abs(qtable.w_moments(1) - 1.0).max())
        ctx.check(
            "exact.quenched-mean",
            "along the realized path the normalized mean stays exactly one",
            w_mean_err <= tol,
            max_abs_error=w_mean_err,
        )
        horizon = len(path) - 1
        if horizon >= 2:
            tails = [exact_moments.quenched_p2_tail(path, n, horizon) for n in range(horizon)]
            bracket_ok = all(t.lower <= t.upper + 1e-15 for t in tails)
            monotone_ok = all(
                tails[n + 1].lower <= tails[n].lower + 1e-15 for n in range(len(tails) - 1)
            )
            ctx.check(
                "exact.quenched-p2-tail",
                "path tail bounds bracket correctly and shrink with the generation",
                bracket_ok and monotone_ok,
                bracket_ok=bracket_ok,
                monotone_ok=monotone_ok,
            )

    if ctx.is_mixture and len(ctx.env.states) == 1 and path is not None:
        table = exact_moments.annealed_moment_table(ctx.env, 0.0, EXACT_TABLE_ORDER, len(path))
        diff = float(
            np.max(
                np.abs(qtable.values - table.values)
                / np.maximum(np.abs(table.values), 1.0)
            )
        )
        ctx.check(
            "exact.single-state-consistency",
            "with one state the annealed and path tables coincide",
            diff <= 1e-10,
            max_rel_diff=diff,
        )
    return section


# ---------------------------------------------------------------------------
# suites: quenched-rate / annealed-rate


# the DecayFit fields a rate section reports
_FIT_PAYLOAD = ("fitted_rho", "ci_low", "ci_high", "window", "r_squared", "points_used")


def _rate_estimates(ctx: _Context, batch: TrajectoryBatch, p: float) -> list[LpEstimate]:
    gap = ctx.cfg.gap
    return [lp_norm(batch, p, n, gap) for n in range(batch.n_max - gap + 1)]


def _fit_with_oracle(
    ctx: _Context,
    tag: str,
    p: float,
    estimates: list[LpEstimate],
    exact_values: list[float] | None,
    predicted_rho: float | None,
) -> dict:
    """Fit the decay rate and check it against any exact curve; check ids start with `tag`."""
    sigmas = ctx.cfg.tolerances["sigmas"]
    section: dict = {"p": p, "estimates": list(estimates), "fit": None}

    if exact_values is not None:
        ok, worst = _within_slack(zip(estimates, exact_values), sigmas)
        ctx.check(
            f"{tag}.estimates-match-exact",
            "sampled moment distances sit within the Monte Carlo slack of the exact curve",
            ok,
            worst_excess=worst,
        )

    if all(e.value <= estimators.ROUNDOFF_DISTANCE**p for e in estimates):
        section["fit_note"] = "degenerate: all distances are zero up to rounding, nothing to fit"
        ctx.check(
            f"{tag}.degenerate-no-fit",
            "a deterministic population has zero distances and no decay rate to fit",
            True,
            estimates_checked=len(estimates),
        )
        return section

    try:
        fit = fit_decay(estimates)
        observed = {"fitted_rho": fit.fitted_rho}
    except FitUnavailableError as exc:
        fit, observed = None, {"error": str(exc)}
        section["fit_note"] = str(exc)
    ctx.check(
        f"{tag}.fit-available",
        "a decay-rate fit is available for a non-degenerate run",
        fit is not None,
        **observed,
    )
    if fit is None:
        return section
    section["fit"] = {key: getattr(fit, key) for key in _FIT_PAYLOAD}

    if exact_values is not None:
        lo, hi = fit.window
        sel = [(e, x) for e, x in zip(estimates, exact_values) if lo <= e.n <= hi and x > 0]
        if len(sel) >= 2:
            ns = [e.n for e, _ in sel]
            ys = [math.log(x) / p for _, x in sel]
            sds = [e.stderr / (p * e.value) for e, _ in sel]
            slope_exact = float(estimators.wls_line(ns, ys, sds)[0][1])
            drift = abs(fit.slope - slope_exact)
            ctx.check(
                f"{tag}.fit-matches-exact",
                "the fitted decay slope agrees with the exact curve's slope within slack",
                drift <= sigmas * fit.slope_se + 1e-12,
                fitted_rho=fit.fitted_rho,
                exact_rho=math.exp(-slope_exact),
                slack_sigmas=sigmas,
            )
    if predicted_rho is not None:
        ctx.check(
            f"{tag}.ci-contains-predicted",
            "the fitted rate's confidence interval contains the predicted critical rate",
            fit.ci_low <= predicted_rho <= fit.ci_high,
            predicted=predicted_rho,
            ci=[fit.ci_low, fit.ci_high],
        )
        section["predicted_rho"] = predicted_rho
    return section


def _rate_batch(ctx: _Context, mode: str) -> TrajectoryBatch:
    """The config's batch in `mode`, once n_max leaves room for a rate fit."""
    if ctx.cfg.n_max - ctx.cfg.gap < 3:
        raise ParameterError("n_max must exceed gap by at least 3 for rate fits")
    return ctx.batch(mode)


def _rate_fits(ctx: _Context, suite: str, batch: TrajectoryBatch, inc, bias, predicted_rho):
    """The per-p body of both rate suites: yields (p, per-p section) after p's checks.

    Only p = 2 has an oracle: the gap sums of the increment second moments
    `inc`, the bias bound `bias(n + gap)` and the rate `predicted_rho` the fit
    should bracket.
    """
    gap = ctx.cfg.gap
    for p in ctx.cfg.p:
        at_p2 = p == 2.0
        estimates = _rate_estimates(ctx, batch, p)
        if at_p2 and bias is not None:
            for est in estimates:
                est.bias_bound = bias(est.n + gap)
        rows = [f"{e.p!r},{e.n},{e.value!r},{e.stderr!r}" for e in estimates]
        ctx.add_csv(f"{suite.replace('-', '_')}_p{p:g}.csv", "p,n,value,stderr", rows)
        exact_vals = _gap_sums(inc, batch.n_max, gap) if at_p2 else None
        yield p, _fit_with_oracle(
            ctx, f"{suite}.p{p:g}", p, estimates, exact_vals, predicted_rho if at_p2 else None
        )


def _suite_quenched_rate(ctx: _Context) -> dict:
    cfg = ctx.cfg
    if not ctx.env.is_supercritical:
        raise ParameterError("quenched-rate suite needs a supercritical environment")
    if ctx.is_mixture and cfg.path_seed is None:
        raise ParameterError("quenched-rate on a mixture needs a path_seed")
    batch = _rate_batch(ctx, MODE_QUENCHED)
    path = batch.path
    inc = exact_moments.quenched_increment_second_moments(path, batch.n_max)
    bias = lambda upto: _exact_segment(inc, upto, batch.n_max) + _tail_remainder(path, inc)

    section: dict = {
        "path_means": [float(m) for m in path.means],
        "per_p": [per_p for _, per_p in _rate_fits(ctx, "quenched-rate", batch, inc, bias, None)],
    }
    if ctx.is_mixture:
        spread = []
        replicas = max(2_000, min(cfg.replicas // 4, 10_000))
        for offset in (1, 2):
            extra = ctx.batch(MODE_QUENCHED, replicas=replicas, path_seed=cfg.path_seed + offset)
            try:
                fit = fit_decay(_rate_estimates(ctx, extra, cfg.p[0]))
                spread.append(fit.fitted_rho)
            except FitUnavailableError:
                spread.append(None)
        fits = [s for s in spread if s is not None]
        section["path_spread"] = {
            "extra_paths": spread,
            "range": (max(fits) - min(fits)) if len(fits) >= 2 else None,
            "note": "single-path heuristic: spread across independently drawn paths",
        }
    return section


def _tail_remainder(path: EnvPath, inc: np.ndarray) -> float:
    """Upper bound on the part of the distance-to-limit the path cannot see."""
    mu_min = float(path.means.min())
    if mu_min <= 1.0:
        return float("inf")
    bar_max = float((inc * np.exp(path.log_means[: len(inc)])).max())
    return bar_max * math.exp(-float(path.log_means[len(inc)])) / (1.0 - 1.0 / mu_min)


def _suite_annealed_rate(ctx: _Context) -> dict:
    if not ctx.is_mixture:
        raise ParameterError("annealed-rate suite needs an i.i.d. mixture environment")
    if not ctx.env.is_supercritical:
        raise ParameterError("annealed-rate suite needs a supercritical environment")
    batch = _rate_batch(ctx, MODE_ANNEALED)
    forms = exact_moments.p2_closed_forms(ctx.env)
    inc = [forms.increment_second_moment(k) for k in range(batch.n_max)]
    bias = predicted = None
    if forms.summable:
        bias = forms.tail
        predicted = 1.0 / math.sqrt(forms.q1) if forms.q1 > 0 else None

    section: dict = {"per_p": []}
    for p, per_p in _rate_fits(ctx, "annealed-rate", batch, inc, bias, predicted):
        if 1.0 < p < 2.0:
            per_p["bias_label"] = "oracle-unbounded bias"
        if p == 2.0 and not forms.summable:
            per_p["fit_note"] = "second moments are unbounded here; no finite rate predicted"
            ctx.check(
                f"annealed-rate.p{p:g}.l2-unbounded-reported",
                "an environment without bounded second moments is reported, not fitted",
                True,
                q1=forms.q1,
            )
        section["per_p"].append(per_p)
    return section


# ---------------------------------------------------------------------------
# suite: burkholder


def _suite_burkholder(ctx: _Context) -> dict:
    batch = ctx.batch(ctx.default_mode())
    last = batch.n_max - 1
    results = []
    for p in ctx.cfg.p:
        for rho in batch.rho_grid:
            for n in sorted({min(2, last), last // 2, last}):
                sc = estimators.burkholder_sandwich(
                    batch, p, rho, n, slack_sigmas=ctx.cfg.tolerances["sigmas"]
                )
                results.append(sc)
                ctx.check(
                    f"burkholder.p{p:g}.rho{rho:.4g}.n{n}",
                    "the weighted-increment norm sits inside the square-function bracket",
                    sc.ok,
                    a_norm=sc.a_norm,
                    lower=sc.lower,
                    upper=sc.upper,
                )
    ctx.add_csv(
        "burkholder.csv",
        "p,rho,n,a_norm,q_norm,lower,upper,ok",
        [
            f"{sc.p!r},{sc.rho!r},{sc.n},{sc.a_norm!r},{sc.q_norm!r},"
            f"{sc.lower!r},{sc.upper!r},{sc.lower_ok and sc.upper_ok}"
            for sc in results
        ],
    )
    return {"results": results}


# ---------------------------------------------------------------------------
# suite: criteria


# the SeriesDiagnostic fields a probe reports, with the last partial sum
_SERIES_PAYLOAD = ("variant", "p", "r", "rho", "margin", "root_stat", "verdict")


def _suite_criteria(ctx: _Context) -> dict:
    cfg = ctx.cfg
    section: dict = {}
    margin = cfg.tolerances["series_margin"]

    if ctx.is_mixture:
        crits = []
        for p in cfg.p:
            crit = rates.annealed_lp_criterion(ctx.env, p)
            crits.append(crit)
            ctx.check(
                f"criteria.p{p:g}.lp-criterion",
                "the moment-shrinkage criterion evaluates on the stationary law",
                True,
                value=crit.mean_power_value,
                holds=crit.holds,
            )
        section["lp_criteria"] = crits
        conds = []
        for p in cfg.p:
            if 1.0 < p < 2.0:
                cond = rates.annealed_critical_conditions(ctx.env, p)
                conds.append(cond)
                ctx.check(
                    f"criteria.p{p:g}.critical-conditions",
                    "the critical-rate hypotheses evaluate on the stationary law",
                    True,
                    all_hold=cond.all_hold,
                )
        if conds:
            section["critical_conditions"] = conds
    else:
        section["lp_criteria"] = None
        section["note"] = "stationary-law criteria need a mixture; this is a fixed path"

    length = max(12, min(cfg.n_max, 40))
    if isinstance(ctx.env, FixedPath):
        length = len(ctx.env.laws)
    if length < 8:
        section["series_note"] = "stored path shorter than 8 states; series probes skipped"
        return section
    path = ctx.series_path(length)
    m_geo = ctx.geo_mean()
    if m_geo <= 1.0:
        section["series_note"] = "path is not supercritical on average; no probes run"
        return section
    probes = section["series_probes"] = []

    def probe(name, statement, wrong_verdict, p, at_rho, variant, r=None, **observed):
        """One series diagnostic: its payload, then a check that it avoids `wrong_verdict`."""
        diag = rates.series_diagnostic(path, p, at_rho, variant, r=r, margin=margin)
        payload = {key: getattr(diag, key) for key in _SERIES_PAYLOAD}
        probes.append(payload | {"partial_sum": float(diag.partial_sums[-1])})
        ctx.check(
            f"criteria.series.{name}",
            statement,
            diag.verdict != wrong_verdict,
            verdict=diag.verdict,
            root_stat=diag.root_stat,
            **observed,
        )

    rho_sub = max(1.0, 0.9 * math.sqrt(m_geo))
    rho_super = 1.2 * math.sqrt(m_geo)
    probe(
        "sub-rho",
        "below the critical rate the rate series shows no divergence",
        "diverging", 2.0, rho_sub, rates.VARIANT_QUADRATIC, rho=rho_sub,
    )
    if not ctx.env.is_degenerate:
        probe(
            "super-rho",
            "above the critical rate the rate series shows no convergence",
            "converging", 2.0, rho_super, rates.VARIANT_QUADRATIC, rho=rho_super,
        )
    small_p = [p for p in cfg.p if 1.0 < p < 2.0]
    if small_p:
        probe(
            "increment-sub-rho",
            "the increment-variant series shows no divergence below the critical rate",
            "diverging", small_p[0], rho_sub, rates.VARIANT_INCREMENT, r=2.0,
        )
    return section


# ---------------------------------------------------------------------------
# suite: identity


def _suite_identity(ctx: _Context) -> dict:
    tol = ctx.cfg.tolerances["identity"]
    batch = ctx.batch(ctx.default_mode())
    rhos = [r for r in batch.rho_grid if r > 1.0]
    if not rhos:
        raise ParameterError("identity suite needs at least one rho > 1 in the grid")
    ns = sorted({1, batch.n_max // 2, batch.n_max - 2})
    ns = [n for n in ns if 0 <= n < batch.n_max - 1]
    results = []
    for rho in rhos[:3]:
        for n in ns:
            residual = increment_identity_check(batch, rho, n)
            results.append({"rho": rho, "n": n, "residual": residual})
            ctx.check(
                f"identity.rho{rho:.4g}.n{n}",
                "the telescoped and accumulator forms of the weighted sum agree",
                residual <= tol,
                residual=residual,
                tolerance=tol,
            )
    return {"results": results}


# in the order of config.KNOWN_SUITES (a test holds them equal)
_SUITES = {
    "rates": _suite_rates,
    "exact": _suite_exact,
    "quenched-rate": _suite_quenched_rate,
    "annealed-rate": _suite_annealed_rate,
    "burkholder": _suite_burkholder,
    "criteria": _suite_criteria,
    "identity": _suite_identity,
}


# ---------------------------------------------------------------------------
# report assembly


def jsonable(obj):
    """Make a structure JSON-safe: dataclasses to dicts, numpy to Python, non-finite to strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _build_report(ctx: _Context, suites: dict, timings: dict, t_start: float):
    """Close the timings; returns (report, csv tables, exit code 2 if any check failed else 0)."""
    timings["total"] = time.perf_counter() - t_start
    checks = ctx.checks
    seen: set[str] = set()
    for c in checks:
        if c["id"] in seen:
            raise BpreLabError(f"check id {c['id']!r} is repeated; ids must identify one check")
        seen.add(c["id"])
    failed = sum(1 for c in checks if not c["passed"])
    report = jsonable(
        {
            "schema": 1,
            "tool": {"name": "bprelab", "version": __version__},
            "config": {"source": ctx.cfg.source, "values": ctx.cfg.raw},
            "suites": suites,
            "checks": checks,
            "summary": {
                "checks": len(checks),
                "passed": len(checks) - failed,
                "failed": failed,
                "ok": failed == 0,
            },
            "timings": timings,
        }
    )
    return report, ctx.csv, EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def write_outputs(report: dict, csv_tables: dict[str, list[str]], out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, lines in csv_tables.items():
        (out / name).write_text("\n".join(lines) + "\n")
    return report_path


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, dict[str, list[str]], int]:
    """Execute the config's suites in order; returns (report, csv tables, exit code)."""
    ctx = _Context(cfg)
    suites: dict = {}
    timings: dict = {}
    t_start = time.perf_counter()
    for suite in cfg.suites:
        t0 = time.perf_counter()
        suites[suite] = _SUITES[suite](ctx)
        timings[suite] = time.perf_counter() - t0
    return _build_report(ctx, suites, timings, t_start)


# ---------------------------------------------------------------------------
# verify suite: cross-module consistency checks with recorded errors


def _verify_p2_closed_forms(ctx: _Context, n_small: int) -> tuple[bool, dict]:
    tol = ctx.cfg.tolerances["exact_rel"]
    if not ctx.is_mixture:
        path = ctx.series_path(n_small)
        qtable = exact_moments.quenched_moments(path, 2, len(path))
        inc = exact_moments.quenched_increment_second_moments(path, len(path))
        passed, worst = _p2_partial_sums(qtable.w_moments(2), inc, tol)
        return passed, {"max_rel_error": worst}
    forms = exact_moments.p2_closed_forms(ctx.env)
    u2 = exact_moments.annealed_u(ctx.env, 0.0, 2, n_small)
    inc = [forms.increment_second_moment(k) for k in range(n_small)]
    passed, worst = _p2_partial_sums(u2, inc, tol)
    observed = {"max_rel_error": worst, "q1": forms.q1, "summable": forms.summable}
    if forms.summable:
        rho = min(1.05, 1.0 / math.sqrt(forms.q1) if forms.q1 > 0 else 1.05)
        rho = max(rho, 1.0)
        if forms.q1 * rho**2 < 1.0:
            partial = exact_moments.a_hat_second_moment_partial(ctx.env, rho, n_small)
            sup = forms.sup_a_hat2(rho)
            remainder = (
                forms.b2
                * (rho**2 * forms.q1) ** n_small
                / (1.0 - rho**2 * forms.q1)
            )
            observed["a_hat_gap"] = sup - partial
            observed["a_hat_remainder_bound"] = remainder
            if not (-1e-12 <= sup - partial <= remainder + 1e-12):
                return False, observed
    return passed, observed


def _verify_recursion(ctx: _Context, n_small: int) -> tuple[bool, dict]:
    if not ctx.is_mixture:
        return True, {"skipped": "needs a stationary mixture"}
    passed, min_slack = _recursion_slack(ctx.env, n_small)
    return passed, {"min_slack": min_slack}


def _verify_envelope(ctx: _Context, n_small: int) -> tuple[bool, dict]:
    if not ctx.is_mixture:
        return True, {"skipped": "needs a stationary mixture"}
    passed, holds = _growth_envelope(ctx.env, n_small, (2, 3, 4, 5))
    return passed, {"per_order": holds}


def _verify_batch(ctx: _Context, n_small: int) -> TrajectoryBatch:
    """A small quenched batch along the series path, shared by the batch checks."""
    return ctx.batch(
        MODE_QUENCHED,
        n_max=len(ctx.series_path(n_small)),
        replicas=max(1_000, min(ctx.cfg.replicas, 4_000)),
        path_seed=ctx.series_seed,
        rho_grid=(1.1, 1.3),
    )


def _verify_identity(ctx: _Context, n_small: int) -> tuple[bool, dict]:
    batch = _verify_batch(ctx, n_small)
    tol = ctx.cfg.tolerances["identity"]
    worst = max(
        increment_identity_check(batch, rho, n)
        for rho in batch.rho_grid
        for n in (1, batch.n_max - 2)
        if n >= 0
    )
    return worst <= tol, {"max_residual": worst, "tolerance": tol}


def _verify_burkholder(ctx: _Context, n_small: int) -> tuple[bool, dict]:
    batch = _verify_batch(ctx, n_small)
    p = ctx.cfg.p[0]
    sc = estimators.burkholder_sandwich(
        batch, p, batch.rho_grid[0], batch.n_max - 1,
        slack_sigmas=ctx.cfg.tolerances["sigmas"],
    )
    return sc.ok, {"p": p, "a_norm": sc.a_norm, "lower": sc.lower, "upper": sc.upper}


def _verify_orderings(ctx: _Context, n_small: int) -> tuple[bool, dict]:
    if not ctx.is_mixture:
        return True, {"skipped": "needs a stationary mixture"}
    if not ctx.env.is_supercritical:
        return True, {"skipped": "environment is not supercritical"}
    reports = [rates.rate_report(ctx.env, p) for p in ctx.cfg.p]
    passed = all(ok for rep in reports for _, _, ok, _ in _rate_orderings(rep))
    return passed, {"last_report": reports[-1]}


def _verify_quenched_increments(ctx: _Context, n_small: int) -> tuple[bool, dict]:
    batch = _verify_batch(ctx, n_small)
    inc = exact_moments.quenched_increment_second_moments(batch.path, batch.n_max)
    pairs = [(lp_norm(batch, 2.0, n, 1), float(inc[n])) for n in range(min(6, batch.n_max))]
    passed, worst = _within_slack(pairs, ctx.cfg.tolerances["sigmas"])
    return passed, {"worst_excess": worst}


# name -> (statement, check), in the order of config.VERIFY_CHECKS (a test holds them equal)
_VERIFY = {
    "p2-closed-forms": (
        "closed-form second moments match the recursion tables", _verify_p2_closed_forms
    ),
    "recursion-inequality": (
        "the split-moment recursion inequality has non-negative slack", _verify_recursion
    ),
    "growth-envelope": (
        "scaled moments stay under the polynomial-times-base envelope", _verify_envelope
    ),
    "increment-identity": (
        "the telescoped and accumulator forms agree to rounding", _verify_identity
    ),
    "burkholder-sandwich": (
        "the weighted-increment norm sits inside the square-function bracket", _verify_burkholder
    ),
    "rate-orderings": ("computed rates obey their proven orderings", _verify_orderings),
    "quenched-increments": (
        "simulated squared increments match the exact path values", _verify_quenched_increments
    ),
}


def verify_suite(cfg: ExperimentConfig) -> tuple[dict, dict[str, list[str]], int]:
    """Run the cross-module consistency checks at small sizes; errors are recorded per check."""
    ctx = _Context(cfg)
    n_small = max(4, min(cfg.n_max, 12))
    timings: dict = {}
    t_start = time.perf_counter()
    for name in cfg.verify:
        statement, fn = _VERIFY[name]
        t0 = time.perf_counter()
        try:
            passed, observed = fn(ctx, n_small)
        except BpreLabError as exc:
            passed, observed = False, {"error": str(exc)}
        ctx.check(f"verify.{name}", statement, passed, **observed)
        timings[name] = time.perf_counter() - t0
    return _build_report(ctx, {"verify": {"checks_run": list(cfg.verify)}}, timings, t_start)
