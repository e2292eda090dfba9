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
from typing import NamedTuple

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

# the tolerances of checks whose two sides differ only by rounding: the
# increment identity's residual, and a relative error between exact values
IDENTITY_TOL = 1e-9
EXACT_REL = 1e-9
# the rounding allowance of an inequality between two computed values
ROUNDING = 1e-12


class Item(NamedTuple):
    """One check, recorded as `<suite>.<suffix>` by `_Context.record`; a suite's section keeps `detail`."""

    suffix: str
    statement: str
    passed: bool
    observed: dict
    detail: object = None


class _Context:
    """Per-experiment scratch: cached batches, checks, and CSV side tables."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.checks: list[dict] = []
        self.csv: dict[str, list[str]] = {}
        self._batches: dict = {}

    # -- verdict and side-table collection ------------------------------

    def record(self, suite: str, items: list[Item]) -> list[Item]:
        """Record each item as the check `<suite>.<suffix>`, the one writer of `checks`; an id
        recorded before is refused at once, before any later suite simulates. Returns the items."""
        for item in items:
            check_id = f"{suite}.{item.suffix}"
            if any(c["id"] == check_id for c in self.checks):
                raise BpreLabError(f"check id {check_id!r} is repeated; ids must identify one check")
            self.checks.append({"id": check_id, "suite": suite, "statement": item.statement,
                                "passed": bool(item.passed), "observed": item.observed})
        return items

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

    def rate_reports(self) -> list[rates.RateReport]:
        """The rate report at each configured p; none without a supercritical stationary law."""
        if not (self.is_mixture and self.env.is_supercritical):
            return []
        return [rates.rate_report(self.env, p) for p in self.cfg.p]

    def rho_grid(self) -> tuple[float, ...]:
        """The burkholder and identity suites' rho: the first, middle and last default-grid points."""
        grid = rates.default_rho_grid(math.sqrt(max(self.geo_mean(), 1.0)))
        return (float(grid[0]), float(grid[len(grid) // 2]), float(grid[-1]))

    @property
    def series_seed(self) -> int:
        """Seed of the realized path for diagnostics: path_seed, else master_seed."""
        return self.cfg.path_seed if self.cfg.path_seed is not None else self.cfg.master_seed

    @property
    def path_states(self) -> float:
        """How many generations the environment can give a batch: a fixed path's length, else inf."""
        return len(self.env.laws) if isinstance(self.env, FixedPath) else math.inf

    def series_path(self, length: int) -> EnvPath:
        """The path a quenched batch at series_seed shares; a fixed path is clamped to its length."""
        return quenched_path(self.env, min(length, self.path_states), self.series_seed)

    # -- cached simulation batches ----------------------------------------

    def batch(self, mode: str, **overrides) -> TrajectoryBatch:
        """The config's batch in `mode`, with SimConfig fields overridden; one run per SimConfig."""
        cfg = self.cfg
        fields = dict(
            env=cfg.env, n_max=cfg.n_max, replicas=cfg.replicas, master_seed=cfg.master_seed,
            path_seed=cfg.path_seed, pop_cap=cfg.pop_cap,
        ) | overrides
        sim = SimConfig(mode=mode, **fields)
        if sim not in self._batches:
            self._batches[sim] = run(sim, threads=cfg.threads)
        return self._batches[sim]

    def default_mode(self) -> str:
        return MODE_ANNEALED if self.is_mixture else MODE_QUENCHED


# ---------------------------------------------------------------------------
# suite needs, checked before any suite runs: (suites, config key, whether the
# config meets the need, refusal naming the {suite}, the {cfg} or the {ctx})


_NEEDS = (
    (("rates", "annealed-rate"), "environment", lambda ctx: ctx.is_mixture,
     "{suite} needs a 'kind: mixture' environment; a fixed path has no stationary law"),
    (("rates", "quenched-rate", "annealed-rate"), "environment",
     lambda ctx: ctx.env.is_supercritical, "{suite} needs a supercritical environment"),
    (("quenched-rate",), "path_seed", lambda ctx: not ctx.is_mixture or ctx.cfg.path_seed is not None,
     "{suite} on a mixture needs a path_seed"),
    (("quenched-rate", "annealed-rate"), "gap", lambda ctx: ctx.cfg.n_max - ctx.cfg.gap >= 3,
     "{suite} needs n_max - gap >= 3 for a fit of 4 points; n_max is {cfg.n_max}"),
    (("identity",), "n_max", lambda ctx: ctx.cfg.n_max >= 2,
     "{suite} needs n_max >= 2 for an n < n_max - 1; n_max is {cfg.n_max}"),
    (("quenched-rate", "burkholder", "identity"), "n_max", lambda ctx: ctx.cfg.n_max <= ctx.path_states,
     "{cfg.n_max} exceeds the fixed path's {ctx.path_states} states"),
    (("criteria",), "environment",
     lambda ctx: ctx.is_mixture or (ctx.path_states >= 8 and ctx.geo_mean() > 1.0),
     "{suite} on a fixed path needs at least 8 states and a supercritical path average "
     "for its series probes; the path has {ctx.path_states} states"),
)


def _p_tag(p: float) -> str:
    """The `p<p>` part of the check ids, suffixes and CSV names that a value of p keys."""
    return f"p{p:g}"


def _check_p_tags(cfg: ExperimentConfig) -> None:
    """Raise ConfigError `<file>: p: ...` when two values of p key the same check ids."""
    for i, p in enumerate(cfg.p):
        for q in cfg.p[:i]:
            if _p_tag(p) == _p_tag(q):
                raise ConfigError(
                    f"{cfg.source}: p: {q!r} and {p!r} give check ids the same tag {_p_tag(p)!r}"
                )


def check_suite_needs(cfg: ExperimentConfig, suites) -> None:
    """Raise ConfigError `<file>: <key>: ...` for the first need of `suites` the config fails."""
    ctx = _Context(cfg)
    for suite in suites:
        for needed_by, key, holds, refusal in _NEEDS:
            if suite in needed_by and not holds(ctx):
                raise ConfigError(f"{cfg.source}: {key}: " + refusal.format(suite=suite, cfg=cfg, ctx=ctx))


# ---------------------------------------------------------------------------
# relations, each checked by a suite and by verify at their own sizes: a
# relation returns its check items, and none outside its domain


def _relation(domain: str):
    """Name the domain outside which a relation yields no item; verify's skipped checks cite it."""

    def mark(fn):
        fn.domain = domain
        return fn

    return mark


@_relation("a supercritical stationary mixture")
def _rate_orderings(reports: list[rates.RateReport]) -> list[Item]:
    """The proven orderings among each report's rates, as `p<p>.<name>`."""
    items = []
    for rep in reports:
        tag = _p_tag(rep.p)
        suff, crit = rep.quenched_sufficient_bound, rep.quenched_critical
        rho0, rhoc = rep.annealed_rho0, rep.annealed_rhoc
        items += [
            Item(f"{tag}.sufficient-le-critical",
                 "the sufficient quenched rate bound never exceeds the critical one",
                 suff <= crit + ROUNDING, {"sufficient": suff, "critical": crit}),
            Item(f"{tag}.annealed-le-quenched",
                 "the annealed critical rate never exceeds the quenched critical rate",
                 rhoc <= crit + ROUNDING, {"annealed_rhoc": rhoc, "quenched_critical": crit}),
        ]
        pair = {"rho0": rho0, "rhoc": rhoc}
        if rep.p >= 2.0:
            items.append(Item(f"{tag}.rates-collapse", "for p >= 2 the two annealed rate formulas agree",
                              math.isclose(rho0, rhoc, rel_tol=ROUNDING), pair))
        elif rep.condition_flags.get("tilt_positive"):
            statement = "under a positive tilt the sufficient annealed rate is below the critical one"
            items.append(Item(f"{tag}.rho0-le-rhoc", statement, rho0 <= rhoc + ROUNDING, pair))
    return items


def _partial_sum_error(moments, inc) -> float:
    """Worst relative error of E[W_k^2] against 1 + sum_{j<k} E|W_{j+1} - W_j|^2 over k."""
    worst = 0.0
    for k, moment in enumerate(moments):
        closed = 1.0 + math.fsum(inc[:k])
        worst = max(worst, abs(moment - closed) / max(closed, 1.0))
    return worst


@_relation("a stationary mixture or an environment path")
def _p2_partial_sums(env: Environment, n: int, path: EnvPath | None = None,
                     a_hat_rho: float | None = None) -> list[Item]:
    """Second moments from the recursion tables against the partial sums of the squared
    increments up to generation n, within relative EXACT_REL: along `path` when one is
    given, else on the stationary law. There `a_hat_rho` adds the gap between
    sup_k E[A_hat_k(rho)^2] and the table's partial sum against the closed-form tail, at
    the lesser of a_hat_rho and the critical rate 1/sqrt(q1)."""
    if path is not None:
        worst = _partial_sum_error(
            exact_moments.quenched_moments(path, 2, n).w_moments(2),
            exact_moments.quenched_increment_second_moments(path, n),
        )
        statement = (
            "along the realized path the second moments match the partial sums of the squared increments"
        )
        return [Item("quenched-p2-tail", statement, worst <= EXACT_REL, {"max_rel_error": worst})]
    forms = exact_moments.p2_closed_forms(env)
    worst = _partial_sum_error(
        exact_moments.annealed_u(env, 0.0, 2, n), [forms.increment_second_moment(k) for k in range(n)]
    )
    items = [Item("p2-partial-sums", "second moments from the recursion match the closed-form partial sums",
                  worst <= EXACT_REL, {"max_rel_error": worst})]
    if a_hat_rho is None or not forms.summable:
        return items
    rho = min(a_hat_rho, 1.0 / math.sqrt(forms.q1))
    if forms.q1 * rho**2 < 1.0:
        sup = forms.sup_a_hat2(rho)
        gap = sup - exact_moments.a_hat_second_moment_partial(env, rho, n)
        remainder = forms.a_hat2_tail(rho, n)
        statement = "the weighted-increment second moments approach their closed-form sup within its tail"
        items.append(Item("a-hat-partial-sums", statement, abs(gap - remainder) <= EXACT_REL * max(sup, 1.0),
                          {"a_hat_gap": gap, "a_hat_remainder_bound": remainder}))
    return items


@_relation("a stationary mixture")
def _growth_envelope(env: Environment, n: int, orders) -> list[Item]:
    """Whether each order's scaled moments stay under the envelope up to max(n, 10)."""
    if not isinstance(env, IIDMixture):
        return []
    holds = [exact_moments.growth_envelope_check(env, 0.0, r, max(n, 10)) for r in orders]
    statement = "scaled moment sequences stay under the polynomial-times-base envelope"
    return [Item("growth-envelope", statement, all(holds), {"orders": list(orders)})]


@_relation("a stationary mixture")
def _recursion_slack(env: Environment, n: int) -> list[Item]:
    """Least slack of the split-moment recursion (orders 3-4, s in {0, 1}) up to max(n, 10)."""
    if not isinstance(env, IIDMixture):
        return []
    min_slack = min(
        float(exact_moments.recursion_inequality_slacks(env, s, r, max(n, 10)).min())
        for r in (3, 4)
        for s in (0.0, 1.0)
    )
    statement = "the split-moment recursion inequality holds with non-negative slack"
    return [Item("recursion-slack", statement, min_slack >= -ROUNDING, {"min_slack": min_slack})]


@_relation("some rho > 1 and some n < n_max - 1")
def _identity(batch: TrajectoryBatch, rhos, ns) -> list[Item]:
    """The telescoped and accumulator forms of A_hat_n(rho) within IDENTITY_TOL, at each rho and n
    that increment_identity_check admits for this batch."""
    items = []
    for rho in rhos:
        for n in ns:
            try:
                residual = increment_identity_check(batch, rho, n)
            except ParameterError:
                continue
            statement = "the telescoped and accumulator forms of the weighted sum agree"
            items.append(Item(f"rho{rho:.4g}.n{n}", statement, residual <= IDENTITY_TOL,
                              {"residual": residual, "tolerance": IDENTITY_TOL},
                              {"rho": rho, "n": n, "residual": residual}))
    return items


# shared by the burkholder items and verify's burkholder-sandwich check
_BRACKET = "the weighted-increment norm sits inside the square-function bracket"


@_relation("rho >= 1 and n < n_max")
def _sandwiches(batch: TrajectoryBatch, ps, rhos, ns) -> list[Item]:
    """The square-function bracket of A_hat_n(rho) with SLACK_SIGMAS slack, at each p, rho and n."""
    items = []
    for p in ps:
        for rho in rhos:
            for n in ns:
                sc = estimators.burkholder_sandwich(batch, p, rho, n)
                observed = {"a_norm": sc.a_norm, "lower": sc.lower, "upper": sc.upper}
                items.append(Item(f"{_p_tag(p)}.rho{rho:.4g}.n{n}", _BRACKET, sc.ok, observed, sc))
    return items


@_relation("exact values, which only p = 2 has")
def _exact_slack(estimates: list[LpEstimate], exact_values) -> list[Item]:
    """Each estimate within SLACK_SIGMAS standard errors of its exact value; none without exact values."""
    if exact_values is None:
        return []
    ok, worst = True, 0.0
    for est, exact in zip(estimates, exact_values):
        dev, slack = abs(est.value - exact), estimators.SLACK_SIGMAS * est.stderr
        ok = ok and dev <= slack + ROUNDING
        worst = max(worst, dev - slack)
    statement = "sampled moment distances sit within the Monte Carlo slack of the exact curve"
    return [Item(f"{_p_tag(estimates[0].p)}.estimates-match-exact", statement, ok, {"worst_excess": worst})]


# ---------------------------------------------------------------------------
# suite: rates


def _suite_rates(ctx: _Context) -> dict:
    reports = ctx.rate_reports()
    ctx.record("rates", _rate_orderings(reports))
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
    n_table = min(ctx.cfg.n_max, EXACT_TABLE_LEN)
    section: dict = {}

    if ctx.is_mixture:
        u = np.column_stack([
            exact_moments.annealed_u(ctx.env, 0.0, r, n_table)
            for r in range(1, EXACT_TABLE_ORDER + 1)
        ])
        section["annealed_table"] = _exact_table(ctx, "exact_annealed.csv", u)
        mean_err = float(np.abs(u[:, 0] - 1.0).max())
        statement = "the normalized population has exact mean one at every generation"
        ctx.record("exact", [Item("martingale-mean", statement, mean_err <= EXACT_REL,
                                  {"max_abs_error": mean_err})])
        forms = exact_moments.p2_closed_forms(ctx.env)
        section["p2_closed_forms"] = {
            "q1": forms.q1,
            "b2": forms.b2,
            "summable": forms.summable,
            "sup_w2": forms.sup_w2(),
        }
        ctx.record("exact", _p2_partial_sums(ctx.env, n_table))
        ctx.record("exact", _growth_envelope(ctx.env, n_table, range(2, EXACT_TABLE_ORDER + 1)))
        ctx.record("exact", _recursion_slack(ctx.env, n_table))

    path = None
    if isinstance(ctx.env, FixedPath) or ctx.cfg.path_seed is not None:
        path = ctx.series_path(n_table)
        qtable = exact_moments.quenched_moments(path, EXACT_TABLE_ORDER, len(path))
        section["quenched_table"] = _exact_table(ctx, "exact_quenched.csv", qtable.values[:, 1:])
        w_mean_err = float(np.abs(qtable.w_moments(1) - 1.0).max())
        statement = "along the realized path the normalized mean stays exactly one"
        ctx.record("exact", [Item("quenched-mean", statement, w_mean_err <= EXACT_REL,
                                  {"max_abs_error": w_mean_err})])
        if len(path) >= 3:
            ctx.record("exact", _p2_partial_sums(ctx.env, len(path), path))

    if ctx.is_mixture and len(ctx.env.states) == 1 and path is not None:
        table = exact_moments.annealed_moment_table(ctx.env, 0.0, EXACT_TABLE_ORDER, len(path))
        diff = float(np.max(np.abs(qtable.values - table.values) / np.maximum(np.abs(table.values), 1.0)))
        statement = "with one state the annealed and path tables coincide"
        ctx.record("exact", [Item("single-state-consistency", statement, diff <= 1e-10,
                                  {"max_rel_diff": diff})])
    return section


# ---------------------------------------------------------------------------
# suites: quenched-rate / annealed-rate


# the DecayFit fields a rate section reports
_FIT_PAYLOAD = ("fitted_rho", "ci_low", "ci_high", "window", "r_squared", "points_used")


def _rate_estimates(ctx: _Context, batch: TrajectoryBatch, p: float) -> list[LpEstimate]:
    gap = ctx.cfg.gap
    return [lp_norm(batch, p, n, gap) for n in range(batch.n_max - gap + 1)]


_FIT_AVAILABLE = "a decay-rate fit is available for a non-degenerate run"


@_relation("estimates at one p")
def _rate_fit(estimates: list[LpEstimate], exact_values, predicted_rho: float | None) -> list[Item]:
    """The estimates' slack against any exact values, then their decay fit against the exact
    curve's slope and the predicted rate, as `p<p>.<name>`. Each item's detail holds the per-p
    section fields it settles: p, estimates, fit and fit_note, or predicted_rho."""
    p = estimates[0].p
    tag = _p_tag(p)
    items = _exact_slack(estimates, exact_values)
    section = {"p": p, "estimates": list(estimates), "fit": None}
    if all(e.value <= estimators.ROUNDOFF_DISTANCE**p for e in estimates):
        note = "degenerate: all distances are zero up to rounding, nothing to fit"
        statement = "a deterministic population has zero distances and no decay rate to fit"
        return items + [Item(f"{tag}.degenerate-no-fit", statement, True,
                             {"estimates_checked": len(estimates)}, section | {"fit_note": note})]
    try:
        fit = fit_decay(estimates)
    except FitUnavailableError as exc:
        return items + [Item(f"{tag}.fit-available", _FIT_AVAILABLE, False, {"error": str(exc)},
                             section | {"fit_note": str(exc)})]
    section["fit"] = {key: getattr(fit, key) for key in _FIT_PAYLOAD}
    items.append(Item(f"{tag}.fit-available", _FIT_AVAILABLE, True, {"fitted_rho": fit.fitted_rho}, section))

    if exact_values is not None:
        lo, hi = fit.window
        sel = [(e, x) for e, x in zip(estimates, exact_values) if lo <= e.n <= hi and x > 0]
        if len(sel) >= 2:
            ns = [e.n for e, _ in sel]
            ys = [math.log(x) / p for _, x in sel]
            sds = [e.stderr / (p * e.value) for e, _ in sel]
            slope_exact = float(estimators.wls_line(ns, ys, sds)[0][1])
            statement = "the fitted decay slope agrees with the exact curve's slope within slack"
            items.append(Item(
                f"{tag}.fit-matches-exact", statement,
                abs(fit.slope - slope_exact) <= estimators.SLACK_SIGMAS * fit.slope_se + ROUNDING,
                {"fitted_rho": fit.fitted_rho, "exact_rho": math.exp(-slope_exact),
                 "slack_sigmas": estimators.SLACK_SIGMAS},
            ))
    if predicted_rho is not None:
        statement = "the fitted rate's confidence interval contains the predicted critical rate"
        items.append(Item(f"{tag}.ci-contains-predicted", statement,
                          fit.ci_low <= predicted_rho <= fit.ci_high,
                          {"predicted": predicted_rho, "ci": [fit.ci_low, fit.ci_high]},
                          {"predicted_rho": predicted_rho}))
    return items


def _section(items: list[Item]) -> dict:
    """The fields the items' details hold, a later item's over an earlier one's."""
    section: dict = {}
    for item in items:
        section |= item.detail or {}
    return section


def _rate_fits(ctx: _Context, suite: str, batch: TrajectoryBatch, inc, bias, predicted_rho):
    """The per-p body of both rate suites: yields (p, p's recorded items).

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
        ctx.add_csv(f"{suite.replace('-', '_')}_{_p_tag(p)}.csv", "p,n,value,stderr", rows)
        # exact E|W_{n+gap} - W_n|^2 is the sum of the increments' second moments
        exact_vals = [math.fsum(inc[e.n : e.n + gap]) for e in estimates] if at_p2 else None
        yield p, ctx.record(suite, _rate_fit(estimates, exact_vals, predicted_rho if at_p2 else None))


def _suite_quenched_rate(ctx: _Context) -> dict:
    cfg = ctx.cfg
    batch = ctx.batch(MODE_QUENCHED)
    path = batch.path
    inc = exact_moments.quenched_increment_second_moments(path, batch.n_max)
    remainder = exact_moments.quenched_p2_tail(path, 0, batch.n_max - 1).remainder
    bias = lambda upto: math.fsum(inc[upto:]) + remainder

    section: dict = {
        "path_means": [float(m) for m in path.means],
        "per_p": [_section(items) for _, items in _rate_fits(ctx, "quenched-rate", batch, inc, bias, None)],
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


def _suite_annealed_rate(ctx: _Context) -> dict:
    batch = ctx.batch(MODE_ANNEALED)
    forms = exact_moments.p2_closed_forms(ctx.env)
    inc = [forms.increment_second_moment(k) for k in range(batch.n_max)]
    bias = predicted = None
    if forms.summable:
        bias = forms.tail
        predicted = 1.0 / math.sqrt(forms.q1) if forms.q1 > 0 else None

    section: dict = {"per_p": []}
    for p, items in _rate_fits(ctx, "annealed-rate", batch, inc, bias, predicted):
        if p == 2.0 and not forms.summable:
            statement = "an environment without bounded second moments is reported, not fitted"
            note = "second moments are unbounded here; no finite rate predicted"
            items += ctx.record("annealed-rate", [Item(f"{_p_tag(p)}.l2-unbounded-reported", statement, True,
                                                       {"q1": forms.q1}, {"fit_note": note})])
        per_p = _section(items)
        if 1.0 < p < 2.0:
            per_p["bias_label"] = "oracle-unbounded bias"
        section["per_p"].append(per_p)
    return section


# ---------------------------------------------------------------------------
# suite: burkholder


def _suite_burkholder(ctx: _Context) -> dict:
    batch = ctx.batch(ctx.default_mode())
    last = batch.n_max - 1
    ns = sorted({min(2, last), last // 2, last})
    items = _sandwiches(batch, ctx.cfg.p, ctx.rho_grid(), ns)
    results = [item.detail for item in ctx.record("burkholder", items)]
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

    if ctx.is_mixture:
        crits = section["lp_criteria"] = [rates.annealed_lp_criterion(ctx.env, p) for p in cfg.p]
        statement = "the moment-shrinkage criterion evaluates on the stationary law"
        ctx.record("criteria", [Item(f"{_p_tag(c.p)}.lp-criterion", statement, True,
                                     {"value": c.mean_power_value, "holds": c.holds}) for c in crits])
        conds = [rates.annealed_critical_conditions(ctx.env, p) for p in cfg.p if 1.0 < p < 2.0]
        statement = "the critical-rate hypotheses evaluate on the stationary law"
        ctx.record("criteria", [Item(f"{_p_tag(c.p)}.critical-conditions", statement, True,
                                     {"all_hold": c.all_hold}) for c in conds])
        if conds:
            section["critical_conditions"] = conds
    else:
        section["lp_criteria"] = None
        section["note"] = "stationary-law criteria need a mixture; this is a fixed path"

    # a fixed path has at least 8 states and a supercritical average (see _NEEDS)
    path = ctx.series_path(max(12, min(cfg.n_max, 40)) if ctx.is_mixture else ctx.path_states)
    m_geo = ctx.geo_mean()
    if m_geo <= 1.0:
        section["series_note"] = "path is not supercritical on average; no probes run"
        return section
    items = []

    def probe(name, statement, wrong_verdict, p, at_rho, variant, r=None, **observed):
        """The item that one series diagnostic avoids `wrong_verdict`; its detail is the payload."""
        diag = rates.series_diagnostic(path, p, at_rho, variant, r=r)
        payload = {key: getattr(diag, key) for key in _SERIES_PAYLOAD}
        items.append(Item(f"series.{name}", statement, diag.verdict != wrong_verdict,
                           {"verdict": diag.verdict, "root_stat": diag.root_stat} | observed,
                           payload | {"partial_sum": float(diag.partial_sums[-1])}))

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
    section["series_probes"] = [item.detail for item in ctx.record("criteria", items)]
    return section


# ---------------------------------------------------------------------------
# suite: identity


def _suite_identity(ctx: _Context) -> dict:
    batch = ctx.batch(ctx.default_mode())
    ns = sorted({1, batch.n_max // 2, batch.n_max - 2})
    items = _identity(batch, ctx.rho_grid(), ns)
    return {"results": [item.detail for item in ctx.record("identity", items)]}


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
    _check_p_tags(cfg)
    check_suite_needs(cfg, cfg.suites)
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
# verify: each name is a relation called at small sizes, folded into one check


# the rho values of verify's identity and sandwich checks
_VERIFY_RHOS = (1.1, 1.3)


def _verify_batch(ctx: _Context, n: int) -> TrajectoryBatch:
    """A small quenched batch of n generations along the series path, shared by the batch checks."""
    return ctx.batch(
        MODE_QUENCHED,
        n_max=n,
        replicas=max(1_000, min(ctx.cfg.replicas, 4_000)),
        path_seed=ctx.series_seed,
    )


# name -> (statement, relation, its keyword arguments at verify's n generations);
# verify runs every name, in this order
_VERIFY = {
    "p2-closed-forms": (
        "closed-form second moments match the recursion tables", _p2_partial_sums,
        lambda ctx, n: dict(env=ctx.env, n=n, path=None if ctx.is_mixture else ctx.series_path(n),
                            a_hat_rho=1.05),
    ),
    "recursion-inequality": (
        "the split-moment recursion inequality has non-negative slack", _recursion_slack,
        lambda ctx, n: dict(env=ctx.env, n=n),
    ),
    "growth-envelope": (
        "scaled moments stay under the polynomial-times-base envelope", _growth_envelope,
        lambda ctx, n: dict(env=ctx.env, n=n, orders=(2, 3, 4, 5)),
    ),
    "increment-identity": (
        "the telescoped and accumulator forms agree to rounding", _identity,
        lambda ctx, n: dict(batch=_verify_batch(ctx, n), rhos=_VERIFY_RHOS, ns=sorted({1, n - 2})),
    ),
    "burkholder-sandwich": (
        _BRACKET, _sandwiches,
        lambda ctx, n: dict(batch=_verify_batch(ctx, n), ps=ctx.cfg.p[:1], rhos=_VERIFY_RHOS[:1],
                            ns=(n - 1,)),
    ),
    "rate-orderings": (
        "computed rates obey their proven orderings", _rate_orderings,
        lambda ctx, n: dict(reports=ctx.rate_reports()),
    ),
    "quenched-increments": (
        "simulated squared increments match the exact path values", _exact_slack,
        lambda ctx, n: dict(
            estimates=[lp_norm(_verify_batch(ctx, n), 2.0, k, 1) for k in range(min(6, n))],
            exact_values=exact_moments.quenched_increment_second_moments(
                _verify_batch(ctx, n).path, min(6, n)
            ),
        ),
    ),
}


def verify_suite(cfg: ExperimentConfig) -> tuple[dict, dict[str, list[str]], int]:
    """Run every cross-module consistency check at small sizes; errors are recorded per check.

    Each name's relation items fold into the one check `verify.<name>`: it
    passes when every item does, and its observed values map each item's
    suffix to its verdict and observed values (a suffix that repeats is
    refused); with no item it passes as skipped, naming the relation's domain.
    """
    _check_p_tags(cfg)
    ctx = _Context(cfg)
    # 4 to 12 generations, and no more than a fixed path has
    n_small = min(max(4, min(cfg.n_max, 12)), ctx.path_states)
    timings: dict = {}
    t_start = time.perf_counter()
    for name, (statement, relation, kwargs) in _VERIFY.items():
        t0 = time.perf_counter()
        try:
            items = relation(**kwargs(ctx, n_small))
        except BpreLabError as exc:
            ctx.record("verify", [Item(name, statement, False, {"error": str(exc)})])
        else:
            observed = {}
            for item in items:
                if item.suffix in observed:
                    raise BpreLabError(f"verify.{name}: suffix {item.suffix!r} is repeated")
                observed[item.suffix] = {"passed": item.passed} | item.observed
            observed = observed or {"skipped": f"needs {relation.domain}"}
            ctx.record("verify", [Item(name, statement, all(item.passed for item in items), observed)])
        timings[name] = time.perf_counter() - t0
    return _build_report(ctx, {"verify": {"checks_run": list(_VERIFY)}}, timings, t_start)
