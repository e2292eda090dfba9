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

from . import exact_moments, rates, relations
from ._version import __version__
from .config import ExperimentConfig
from .environment import EnvPath, Environment, FixedPath, IIDMixture
from .errors import BpreLabError, ConfigError
from .estimators import (
    fit_decay,  # bound only so the benchmark's trace wraps it here (ROADMAP item 1)
    lp_norm,
)
from .relations import EXACT_REL, Item, p_tag
from .simulate import (
    MODE_ANNEALED,
    MODE_QUENCHED,
    SimConfig,
    TrajectoryBatch,
    increment_identity_check,  # bound only so the benchmark's trace wraps it here (ROADMAP item 1)
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


def _check_p_tags(cfg: ExperimentConfig) -> None:
    """Raise ConfigError `<file>: p: ...` when two values of p key the same check ids."""
    for i, p in enumerate(cfg.p):
        for q in cfg.p[:i]:
            if p_tag(p) == p_tag(q):
                raise ConfigError(
                    f"{cfg.source}: p: {q!r} and {p!r} give check ids the same tag {p_tag(p)!r}"
                )


def check_suite_needs(cfg: ExperimentConfig, suites) -> None:
    """Raise ConfigError `<file>: <key>: ...` for the first need of `suites` the config fails."""
    ctx = _Context(cfg)
    for suite in suites:
        for needed_by, key, holds, refusal in _NEEDS:
            if suite in needed_by and not holds(ctx):
                raise ConfigError(f"{cfg.source}: {key}: " + refusal.format(suite=suite, cfg=cfg, ctx=ctx))


# ---------------------------------------------------------------------------
# suite: rates


def _suite_rates(ctx: _Context) -> dict:
    reports = ctx.rate_reports()
    ctx.record("rates", relations.rate_orderings(reports))
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
        ctx.record("exact", relations.p2_partial_sums(ctx.env, n_table))
        ctx.record("exact", relations.growth_envelope(ctx.env, n_table, range(2, EXACT_TABLE_ORDER + 1)))
        ctx.record("exact", relations.recursion_slack(ctx.env, n_table))

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
            ctx.record("exact", relations.p2_partial_sums(ctx.env, len(path), path))

    if ctx.is_mixture and len(ctx.env.states) == 1 and path is not None:
        table = exact_moments.annealed_moment_table(ctx.env, 0.0, EXACT_TABLE_ORDER, len(path))
        diff = float(np.max(np.abs(qtable.values - table.values) / np.maximum(np.abs(table.values), 1.0)))
        statement = "with one state the annealed and path tables coincide"
        ctx.record("exact", [Item("single-state-consistency", statement, diff <= 1e-10,
                                  {"max_rel_diff": diff})])
    return section


# ---------------------------------------------------------------------------
# suites: quenched-rate / annealed-rate


def _section(items: list[Item]) -> dict:
    """The fields the items' details hold, a later item's over an earlier one's."""
    section: dict = {}
    for item in items:
        section |= item.detail or {}
    return section


def _rate_fits(ctx: _Context, suite: str, batch: TrajectoryBatch, inc, bias, **p2):
    """The per-p body of both rate suites: yields (p, p's recorded items).

    Only p = 2 has an oracle: the gap sums of the increment second moments
    `inc`, the bias bound `bias(n + gap)` and the keyword arguments `p2` of
    its rate_fit (the rate `predicted_rho` the fit should bracket, or the
    `unbounded_q1` that leaves nothing to fit).
    """
    gap = ctx.cfg.gap
    for p in ctx.cfg.p:
        at_p2 = p == 2.0
        estimates = [lp_norm(batch, p, n, gap) for n in range(batch.n_max - gap + 1)]
        if at_p2 and bias is not None:
            for est in estimates:
                est.bias_bound = bias(est.n + gap)
        rows = [f"{e.p!r},{e.n},{e.value!r},{e.stderr!r}" for e in estimates]
        ctx.add_csv(f"{suite.replace('-', '_')}_{p_tag(p)}.csv", "p,n,value,stderr", rows)
        # exact E|W_{n+gap} - W_n|^2 is the sum of the increments' second moments
        exact_vals = [math.fsum(inc[e.n : e.n + gap]) for e in estimates] if at_p2 else None
        yield p, ctx.record(suite, relations.rate_fit(estimates, exact_vals, **(p2 if at_p2 else {})))


def _suite_quenched_rate(ctx: _Context) -> dict:
    batch = ctx.batch(MODE_QUENCHED)
    path = batch.path
    inc = exact_moments.quenched_increment_second_moments(path, batch.n_max)
    remainder = exact_moments.quenched_p2_tail(path, 0, batch.n_max - 1).remainder
    bias = lambda upto: math.fsum(inc[upto:]) + remainder

    return {
        "path_means": [float(m) for m in path.means],
        "per_p": [_section(items) for _, items in _rate_fits(ctx, "quenched-rate", batch, inc, bias)],
    }


def _suite_annealed_rate(ctx: _Context) -> dict:
    batch = ctx.batch(MODE_ANNEALED)
    forms = exact_moments.p2_closed_forms(ctx.env)
    inc = [forms.increment_second_moment(k) for k in range(batch.n_max)]
    if forms.summable:
        bias, p2 = forms.tail, {"predicted_rho": 1.0 / math.sqrt(forms.q1)}
    else:
        bias, p2 = None, {"unbounded_q1": forms.q1}

    section: dict = {"per_p": []}
    for p, items in _rate_fits(ctx, "annealed-rate", batch, inc, bias, **p2):
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
    items = relations.sandwiches(batch, ctx.cfg.p, ctx.rho_grid(), ns)
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
        ctx.record("criteria", [Item(f"{p_tag(c.p)}.lp-criterion", statement, True,
                                     {"value": c.mean_power_value, "holds": c.holds}) for c in crits])
        conds = [rates.annealed_critical_conditions(ctx.env, p) for p in cfg.p if 1.0 < p < 2.0]
        statement = "the critical-rate hypotheses evaluate on the stationary law"
        ctx.record("criteria", [Item(f"{p_tag(c.p)}.critical-conditions", statement, True,
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
    items = relations.identity(batch, ctx.rho_grid(), ns)
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
        "closed-form second moments match the recursion tables", relations.p2_partial_sums,
        lambda ctx, n: dict(env=ctx.env, n=n, path=None if ctx.is_mixture else ctx.series_path(n),
                            a_hat_rho=1.05),
    ),
    "recursion-inequality": (
        "the split-moment recursion inequality has non-negative slack", relations.recursion_slack,
        lambda ctx, n: dict(env=ctx.env, n=n),
    ),
    "growth-envelope": (
        "scaled moments stay under the polynomial-times-base envelope", relations.growth_envelope,
        lambda ctx, n: dict(env=ctx.env, n=n, orders=(2, 3, 4, 5)),
    ),
    "increment-identity": (
        "the telescoped and accumulator forms agree to rounding", relations.identity,
        lambda ctx, n: dict(batch=_verify_batch(ctx, n), rhos=_VERIFY_RHOS, ns=sorted({1, n - 2})),
    ),
    "burkholder-sandwich": (
        relations.BRACKET, relations.sandwiches,
        lambda ctx, n: dict(batch=_verify_batch(ctx, n), ps=ctx.cfg.p[:1], rhos=_VERIFY_RHOS[:1],
                            ns=(n - 1,)),
    ),
    "rate-orderings": (
        "computed rates obey their proven orderings", relations.rate_orderings,
        lambda ctx, n: dict(reports=ctx.rate_reports()),
    ),
    "quenched-increments": (
        "simulated squared increments match the exact path values", relations.exact_slack,
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
