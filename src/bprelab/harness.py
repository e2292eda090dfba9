"""Suite orchestration: run configured check suites and write versioned reports.

A report is deterministic for a given config (the timings block aside): suites execute in
declared order, every verdict lands in `checks` as {id, suite, statement, passed, observed}, and
the exit code is 0 when all checks pass, 2 when any fails, 1 for config or precondition errors
(decided by the CLI, which maps raised errors). The relations build each suite's items, and
`_Context.record` turns them into checks by the id grammar and `relations.FAMILIES`; a suite
body only orchestrates. `_SUITES` declares each suite once: its body,
the batch it reads, whether `verify` runs it and the reducer keys it reads of that batch. The
suite loop simulates each batch, reduced at its readers' keys, for its first reader, hands
each reader its own keys and holds the batch to the run's end, since a reduced batch is only
its statuses and partial sums. `run` runs the config's suites
at its sizes; `verify` runs the suites marked for it through the same loop at small sizes, under
`_Context(verify=True)`, and names the suites it could not run instead of refusing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import exact_moments, rates, relations
from ._version import __version__
from .environment import EnvPath, Environment, IIDMixture
from .errors import BpreLabError, ConfigError
# fit_decay and increment_identity_check are bound only so the benchmark's trace wraps them here (ROADMAP item 1)
from .estimators import MIN_FIT_POINTS, MIN_REPLICAS, fit_decay, lp_norm
from .relations import FAMILIES, Item, p_tag
from .simulate import BRACKET, IDENTITY, MODE_ANNEALED, MODE_QUENCHED, MOMENT, SimConfig, TrajectoryBatch
from .simulate import increment_identity_check, pop_cap_fits, quenched_path, run

if TYPE_CHECKING:  # config imports this module for the suite names
    from .config import ExperimentConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

EXACT_TABLE_ORDER = 4
EXACT_TABLE_LEN = 12
# the rate rho of verify's A_hat partial sums, capped at q1^(-1/4) by the relation
VERIFY_A_HAT_RHO = 1.05


class _Context:
    """Per-experiment scratch: config geometry, checks and CSV side tables. `verify=True`
    adds the exact suite's A_hat partial sums at VERIFY_A_HAT_RHO and leaves the rate suites
    only their estimates' slack against their oracles' exact values."""

    def __init__(self, cfg: ExperimentConfig, verify: bool = False):
        self.cfg = cfg
        self.verify = verify
        self.checks: list[dict] = []
        self.csv: dict[str, list[str]] = {}

    # -- verdict and side-table collection ------------------------------

    def record(self, suite: str, items: list[Item]) -> list[Item]:
        """Record each item as the check `<suite>[.p<p:g>][.rho<rho:.4g>][.n<n>][.<name>]` with its
        family's statement from `FAMILIES`, the one writer of `checks`. An id whose family
        `<suite>[.<name>]` is not registered, or that is repeated, is refused before any item is
        written and before any later suite simulates. Returns the items."""
        checks = []
        for item in items:
            check_id = ".".join(filter(None, (suite, item.suffix)))
            family = ".".join(filter(None, (suite, item.name)))
            if family not in FAMILIES:
                raise BpreLabError(f"check id {check_id!r}: its family {family!r} is not in relations.FAMILIES")
            if any(c["id"] == check_id for c in self.checks + checks):
                raise BpreLabError(f"check id {check_id!r} is repeated; ids must identify one check")
            checks.append({"id": check_id, "suite": suite, "statement": FAMILIES[family],
                           "passed": bool(item.passed), "observed": item.observed})
        self.checks += checks
        return items

    def add_csv(self, name: str, fields: tuple[str, ...], rows) -> None:
        """The one writer of CSV `name`: a header of the field names, then each row's values by `repr`."""
        self.csv[name] = [",".join(fields)] + [",".join(map(repr, row)) for row in rows]

    # -- environment geometry --------------------------------------------

    @property
    def env(self) -> Environment:
        return self.cfg.env

    @property
    def is_mixture(self) -> bool:
        return isinstance(self.env, IIDMixture)

    def geo_mean(self) -> float:
        """Stationary geometric mean, or the fixed path's mean growth."""
        return self.env.geo_mean() if self.is_mixture else self.env.mean_growth

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
        return math.inf if self.is_mixture else len(self.env.laws)

    def series_path(self, length: int) -> EnvPath:
        """The path a quenched batch at series_seed shares; a fixed path is clamped to its length."""
        return quenched_path(self.env, min(length, self.path_states), self.series_seed)

    def default_mode(self) -> str:
        return MODE_ANNEALED if self.is_mixture else MODE_QUENCHED


# ---------------------------------------------------------------------------
# suite: rates


def _suite_rates(ctx: _Context) -> dict:
    reports = [rates.rate_report(ctx.env, p) for p in ctx.cfg.p]
    ctx.record("rates", relations.rate_orderings(reports))
    fields = ("p", "m_geo", "quenched_sufficient_bound", "quenched_critical", "annealed_rho0", "annealed_rhoc")
    ctx.add_csv("rates.csv", fields, map(attrgetter(*fields), reports))
    return {"reports": reports}


# ---------------------------------------------------------------------------
# suite: exact


def _exact_table(ctx: _Context, name: str, values: np.ndarray) -> dict:
    """Write values[n, j-1], the order-j moment at generation n, as CSV `name`; return its summary."""
    ctx.add_csv(name, ("n", "j", "value"),
                [(n, j, float(v)) for n, row in enumerate(values) for j, v in enumerate(row, 1)])
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
        ctx.record("exact", relations.unit_mean("martingale-mean", u[:, 0]))
        forms = exact_moments.p2_closed_forms(ctx.env)
        section["p2_closed_forms"] = {
            "q1": forms.q1,
            "b2": forms.b2,
            "summable": forms.summable,
            "sup_w2": forms.sup_w2(),
        }
        ctx.record("exact", relations.annealed_p2_partial_sums(ctx.env, n_table))
        if ctx.verify:
            ctx.record("exact", relations.a_hat_partial_sums(ctx.env, n_table, VERIFY_A_HAT_RHO))
        ctx.record("exact", relations.growth_envelope(ctx.env, n_table, range(2, EXACT_TABLE_ORDER + 1)))
        ctx.record("exact", relations.recursion_slack(ctx.env, n_table))

    path = None
    if not ctx.is_mixture or ctx.cfg.path_seed is not None:
        path = ctx.series_path(n_table)
        qtable = exact_moments.quenched_moments(path, EXACT_TABLE_ORDER, len(path))
        section["quenched_table"] = _exact_table(ctx, "exact_quenched.csv", qtable.values[:, 1:])
        ctx.record("exact", relations.unit_mean("quenched-mean", qtable.w_moments(1)))
        if len(path) >= 3:
            ctx.record("exact", relations.quenched_p2_partial_sums(path, len(path)))

    if ctx.is_mixture and len(ctx.env.states) == 1 and path is not None:
        ctx.record("exact", relations.single_state_consistency(ctx.env, qtable))
    return section


# ---------------------------------------------------------------------------
# suites: quenched-rate / annealed-rate


def _moment_keys(ctx: _Context) -> list[tuple]:
    """The reducer keys both rate suites read: |W_{n+gap} - W_n|^p at each p and n."""
    gap = ctx.cfg.gap
    return [(MOMENT, p, n, gap) for p in ctx.cfg.p for n in range(ctx.cfg.n_max - gap + 1)]


def _rate_fits(ctx: _Context, suite: str, batch: TrajectoryBatch, oracles, keys) -> list[dict]:
    """The per-p body of both rate suites: records each p's items; returns the per-p sections.

    `oracles` maps each p to its `relations.RateOracle`, which says what is
    exact there; each p's estimates are read at its moment keys, in their
    declared order. Under `ctx.verify` only the estimates' slack against the
    oracle's exact values is recorded, and a section holds p, the estimates
    and the oracle's bias_label, where it has one.
    """
    sections = []
    for p, oracle in oracles.items():
        estimates = [lp_norm(batch, *key[1:]) for key in keys if key[1] == p]
        fields = ("p", "n", "value", "stderr")
        ctx.add_csv(f"{suite.replace('-', '_')}_{p_tag(p)}.csv", fields, map(attrgetter(*fields), estimates))
        items, section = relations.rate_fit(estimates, oracle, fitting=not ctx.verify)
        ctx.record(suite, items)
        sections.append(section)
    return sections


def _suite_quenched_rate(ctx: _Context, batch: TrajectoryBatch, keys) -> dict:
    oracles = relations.quenched_oracles(ctx.env, batch.path, batch.n_max, ctx.cfg.p)
    return {"path_means": [float(m) for m in batch.path.means],
            "per_p": _rate_fits(ctx, "quenched-rate", batch, oracles, keys)}


def _suite_annealed_rate(ctx: _Context, batch: TrajectoryBatch, keys) -> dict:
    oracles = relations.annealed_oracles(ctx.env, batch.n_max, ctx.cfg.p)
    return {"per_p": _rate_fits(ctx, "annealed-rate", batch, oracles, keys)}


# ---------------------------------------------------------------------------
# suite: burkholder


def _bracket_keys(ctx: _Context) -> list[tuple]:
    """The burkholder suite's reducer keys, at each p, rho and n in that order."""
    last = ctx.cfg.n_max - 1
    ns = sorted({min(2, last), last // 2, last})
    return [(BRACKET, p, rho, n) for p in ctx.cfg.p for rho in ctx.rho_grid() for n in ns]


def _suite_burkholder(ctx: _Context, batch: TrajectoryBatch, keys) -> dict:
    items = relations.sandwiches(batch, keys)
    results = [item.detail for item in ctx.record("burkholder", items)]
    fields = ("p", "rho", "n", "a_norm", "q_norm", "lower", "upper", "ok")
    ctx.add_csv("burkholder.csv", fields, map(attrgetter(*fields), results))
    return {"results": results}


# ---------------------------------------------------------------------------
# suite: criteria


def _suite_criteria(ctx: _Context) -> dict:
    cfg = ctx.cfg
    section: dict = {}

    if ctx.is_mixture:
        crits = section["lp_criteria"] = [rates.annealed_lp_criterion(ctx.env, p) for p in cfg.p]
        conds = [rates.annealed_critical_conditions(ctx.env, p) for p in cfg.p if 1.0 < p < 2.0]
        ctx.record("criteria", relations.stationary_criteria(crits, conds))
        if conds:
            section["critical_conditions"] = conds
    else:
        section["lp_criteria"] = None
        section["note"] = "stationary-law criteria need a mixture; this is a fixed path"

    # a fixed path has at least 8 states and a supercritical average (see _NEEDS)
    path = ctx.series_path(max(12, min(cfg.n_max, 40)) if ctx.is_mixture else ctx.path_states)
    if not ctx.env.is_supercritical:
        section["series_note"] = "path is not supercritical on average; no probes run"
        return section
    items = relations.series_probes(ctx.env, path, ctx.geo_mean(), cfg.p)
    section["series_probes"] = [item.detail for item in ctx.record("criteria", items)]
    return section


# ---------------------------------------------------------------------------
# suite: identity


def _identity_keys(ctx: _Context) -> list[tuple]:
    """The identity suite's reducer keys, at each rho and n in that order."""
    ns = sorted({1, ctx.cfg.n_max // 2, ctx.cfg.n_max - 2})
    return [(IDENTITY, rho, n) for rho in ctx.rho_grid() for n in ns]


def _suite_identity(ctx: _Context, batch: TrajectoryBatch, keys) -> dict:
    items = relations.identity(batch, keys)
    return {"results": [item.detail for item in ctx.record("identity", items)]}


class _Suite(NamedTuple):
    """A suite's body, the mode of the batch it reads (None: none), whether `verify` runs it,
    and the reducer keys it reads of that batch. _run_suites simulates a batch for its first
    reader, reduced at every key its readers declare, holds it to the run's end and hands it and
    the reader's own declared keys to each reader's body as body(ctx, batch, keys); a body that
    reads no batch is called as body(ctx)."""

    body: Callable
    reads: Callable[[_Context], str] | None
    verify: bool
    keys: Callable[[_Context], list] | None = None


# the suite names a config may list, in the order the config loader names them
_SUITES = {
    "rates": _Suite(_suite_rates, None, True),
    "exact": _Suite(_suite_exact, None, True),
    "quenched-rate": _Suite(_suite_quenched_rate, lambda ctx: MODE_QUENCHED, True, _moment_keys),
    "annealed-rate": _Suite(_suite_annealed_rate, lambda ctx: MODE_ANNEALED, False, _moment_keys),
    "burkholder": _Suite(_suite_burkholder, _Context.default_mode, True, _bracket_keys),
    "criteria": _Suite(_suite_criteria, None, False),
    "identity": _Suite(_suite_identity, _Context.default_mode, True, _identity_keys),
}


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
    (("quenched-rate", "annealed-rate"), "gap", lambda ctx: ctx.cfg.n_max - ctx.cfg.gap + 1 >= MIN_FIT_POINTS,
     f"{{suite}} needs n_max - gap >= {MIN_FIT_POINTS - 1} for a fit of {MIN_FIT_POINTS} points; "
     "n_max is {cfg.n_max}"),
    (("identity",), "n_max", lambda ctx: ctx.cfg.n_max >= 2,
     "{suite} needs n_max >= 2 for an n < n_max - 1; n_max is {cfg.n_max}"),
    (("quenched-rate", "burkholder", "identity"), "n_max", lambda ctx: ctx.cfg.n_max <= ctx.path_states,
     "{cfg.n_max} exceeds the fixed path's {ctx.path_states} states"),
    (("criteria",), "environment",
     lambda ctx: ctx.is_mixture or (ctx.path_states >= 8 and ctx.env.is_supercritical),
     "{suite} on a fixed path needs at least 8 states and a supercritical path average "
     "for its series probes; the path has {ctx.path_states} states"),
    (("quenched-rate", "annealed-rate", "burkholder"), "replicas", lambda ctx: ctx.cfg.replicas >= MIN_REPLICAS,
     f"{{suite}} needs at least {MIN_REPLICAS} replicas for its estimates; replicas is {{cfg.replicas}}"),
    (tuple(suite for suite, row in _SUITES.items() if row.reads), "pop_cap",
     lambda ctx: pop_cap_fits(ctx.env, ctx.cfg.pop_cap),
     "{suite} needs pop_cap times the largest offspring count below 2**62 for exact int64 totals; "
     "pop_cap is {cfg.pop_cap}"),
)


def _refusal(ctx: _Context, suite: str) -> str | None:
    """`<file>: <key>: ...` for the first need of `suite` that the config fails, else None."""
    for needed_by, key, holds, refusal in _NEEDS:
        if suite in needed_by and not holds(ctx):
            return f"{ctx.cfg.source}: {key}: " + refusal.format(suite=suite, cfg=ctx.cfg, ctx=ctx)
    return None


def check_suite_needs(cfg: ExperimentConfig, suites) -> None:
    """Raise ConfigError with the refusal of the first need of `suites` the config fails."""
    ctx = _Context(cfg)
    for suite in suites:
        refusal = _refusal(ctx, suite)
        if refusal is not None:
            raise ConfigError(refusal)


# ---------------------------------------------------------------------------
# report assembly


def jsonable(obj):
    """Make a structure JSON-safe: a dataclass's fields read in place, numpy to Python, non-finite to strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _run_suites(ctx: _Context, suites, body: dict) -> tuple[dict, dict[str, list[str]], int]:
    """Run `suites` in order, each section into `body`; returns (report, csv tables, exit code
    2 if any check failed, else 0).

    A suite whose row reads a batch is handed it, simulated before its
    first reader and reduced at every key that the run's readers of it
    declare, and the keys it declared itself, computed once per run;
    `timings.batches` holds each batch's seconds and a suite's
    timing its own. The batches live until the run returns: reduced at its
    readers' keys, a batch holds no `w` rows, only 5 status bytes a replica
    and its partial sums, so dropping it after its last reader saves little.
    """
    cfg = ctx.cfg
    reads = [_SUITES[suite].reads and _SUITES[suite].reads(ctx) for suite in suites]
    keys = [_SUITES[suite].keys(ctx) if read else () for suite, read in zip(suites, reads)]
    batches: dict[str, TrajectoryBatch] = {}
    timings: dict = {"batches": {}}
    # consecutive clock readings: every second of the loop lands in one batch's or one suite's entry
    t_start = t0 = time.perf_counter()
    for suite, mode, declared in zip(suites, reads, keys):
        if mode and mode not in batches:
            batches[mode] = run(SimConfig(
                mode=mode, env=cfg.env, n_max=cfg.n_max, replicas=cfg.replicas,
                master_seed=cfg.master_seed, path_seed=cfg.path_seed, pop_cap=cfg.pop_cap,
            ), reductions=[key for read, own in zip(reads, keys) if read == mode for key in own])
            t1 = time.perf_counter()
            timings["batches"][mode], t0 = t1 - t0, t1
        body[suite] = _SUITES[suite].body(ctx, batches[mode], declared) if mode else _SUITES[suite].body(ctx)
        t1 = time.perf_counter()
        timings[suite], t0 = t1 - t0, t1
    timings["total"] = time.perf_counter() - t_start
    checks = ctx.checks
    failed = sum(1 for c in checks if not c["passed"])
    report = jsonable(
        {
            "schema": 1,
            "tool": {"name": "bprelab", "version": __version__},
            "config": {"source": ctx.cfg.source, "values": ctx.cfg.raw},
            "suites": body,
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
    check_suite_needs(cfg, cfg.suites)
    return _run_suites(_Context(cfg), cfg.suites, {})


def verify_suite(cfg: ExperimentConfig) -> tuple[dict, dict[str, list[str]], int]:
    """Run the suites whose `_SUITES` row has `verify` at small sizes; returns (report, csv tables, exit code).

    The sizes are 4 to 12 generations (no more than a fixed path has), gap 1,
    1,000 to 4,000 replicas and the quenched batch on the series path. Every
    suite that records no check, because the small config fails its needs or
    for want of exact values, is named with the reason in
    `suites.verify.not_applicable`.
    """
    ctx = _Context(cfg)
    small = dataclasses.replace(
        cfg, n_max=min(max(4, min(cfg.n_max, 12)), ctx.path_states), gap=1,
        replicas=max(1_000, min(cfg.replicas, 4_000)), path_seed=ctx.series_seed,
    )
    ctx = _Context(small, verify=True)
    refusals = {suite: _refusal(ctx, suite) for suite, row in _SUITES.items() if row.verify}
    sizes = {key: getattr(small, key) for key in ("n_max", "gap", "replicas", "path_seed")}
    admitted = [suite for suite, refusal in refusals.items() if refusal is None]
    report, tables, code = _run_suites(ctx, admitted, {"verify": {"sizes": sizes}})
    recorded = {check["suite"] for check in report["checks"]}
    empty = f"records no check at n_max {small.n_max}, gap 1 and p {list(small.p)}"
    report["suites"]["verify"]["not_applicable"] = {
        suite: refusal or f"{suite} {empty}" for suite, refusal in refusals.items() if suite not in recorded
    }
    return report, tables, code
