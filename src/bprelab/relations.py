"""Relations: pure functions from an environment, a path, a batch, a table or
estimates, and sizes, to the check items that judge them, and `FAMILIES`, the
one list of check families and their statements.

A check id is `<suite>[.p<p:g>][.rho<rho:.4g>][.n<n>][.<name>]`, and its
family is the id without its p, rho and n parts: `<suite>[.<name>]`. An item
carries the name and the parts; `harness._Context.record` formats the id,
takes the statement from `FAMILIES` and refuses a family not in it. The
suites decide where a relation applies (`harness._NEEDS` and the exact
suite's mixture branch) and call it there, at `run`'s sizes or at `verify`'s;
the rate oracles decide what is exact for the rate suites at each (mode, p).
`identity` and `sandwiches` keep only the keys that the reducer admits. The
simulation, rate and estimator layers are called through their modules, so a
wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import estimators, exact_moments, rates, simulate
from .environment import EnvPath, Environment, IIDMixture
from .errors import FitUnavailableError, ParameterError
from .estimators import LpEstimate
from .exact_moments import MomentTable
from .simulate import TrajectoryBatch

# the tolerances of checks whose two sides differ only by rounding: the
# increment identity's residual, and a relative error between exact values
IDENTITY_TOL = 1e-9
EXACT_REL = 1e-9
# the relative gap allowed between two routes to one exact moment table
TABLE_REL = 1e-10
# the rounding allowance of an inequality between two computed values
ROUNDING = 1e-12
# the most states a mixture's path is drawn to for its quenched p = 2 remainder
TAIL_STATES = 2**16


# every check family, `<suite>[.<name>]`, with its statement, in the suites' order
FAMILIES = {
    "rates.sufficient-le-critical": "the sufficient quenched rate bound never exceeds the critical one",
    "rates.annealed-le-quenched": "the annealed critical rate never exceeds the quenched critical rate",
    "rates.rates-collapse": "for p >= 2 the two annealed rate formulas agree",
    "rates.rho0-le-rhoc": "under a positive tilt the sufficient annealed rate is below the critical one",
    "exact.martingale-mean": "the normalized population has exact mean one at every generation",
    "exact.p2-partial-sums": "second moments from the recursion match the closed-form partial sums",
    "exact.a-hat-partial-sums": "the weighted-increment second moments approach their closed-form sup within its tail",
    "exact.growth-envelope": "scaled moment sequences stay under the polynomial-times-base envelope",
    "exact.recursion-slack": "the split-moment recursion inequality holds with non-negative slack",
    "exact.quenched-mean": "along the realized path the normalized mean stays exactly one",
    "exact.quenched-p2-tail":
        "along the realized path the second moments match the partial sums of the squared increments",
    "exact.single-state-consistency": "with one state the annealed and path tables coincide",
    # the rate-fit families, which both rate suites record
    **{f"{suite}.{name}": statement for suite in ("quenched-rate", "annealed-rate") for name, statement in (
        ("estimates-match-exact", "sampled moment distances sit within the Monte Carlo slack of the exact curve"),
        ("degenerate-no-fit", "a deterministic population has zero distances and no decay rate to fit"),
        ("fit-available", "a decay-rate fit is available for a non-degenerate run"),
        ("fit-matches-exact", "the fitted decay slope agrees with the exact curve's slope within slack"),
    )},
    "annealed-rate.l2-unbounded-reported": "an environment without bounded second moments is reported, not fitted",
    "annealed-rate.ci-contains-predicted": "the fitted rate's confidence interval contains the predicted critical rate",
    "burkholder": "the weighted-increment norm sits inside the square-function bracket",
    "criteria.lp-criterion": "the moment-shrinkage criterion evaluates on the stationary law",
    "criteria.critical-conditions": "the critical-rate hypotheses evaluate on the stationary law",
    "criteria.series.sub-rho": "below the critical rate the rate series shows no divergence",
    "criteria.series.super-rho": "above the critical rate the rate series shows no convergence",
    "criteria.series.increment-sub-rho": "the increment-variant series shows no divergence below the critical rate",
    "identity": "the telescoped and accumulator forms of the weighted sum agree",
}


def p_tag(p: float) -> str:
    """The `p<p>` part of the check ids, suffixes and CSV names that a value of p keys."""
    return f"p{p:g}"


class Item(NamedTuple):
    """One check of the family `<suite>[.<name>]` at the given p, rho and n parts, recorded by
    `_Context.record`; `detail` is a whole section entry."""

    name: str | None
    passed: bool
    observed: dict
    detail: object = None
    p: float | None = None
    rho: float | None = None
    n: int | None = None

    @property
    def suffix(self) -> str:
        """The id after `<suite>.`: `p<p:g>`, `rho<rho:.4g>`, `n<n>` and the name, each where set, joined by dots."""
        parts = (self.p is not None and p_tag(self.p), self.rho is not None and f"rho{self.rho:.4g}",
                 self.n is not None and f"n{self.n}", self.name)
        return ".".join(filter(None, parts))


def rate_orderings(reports: list[rates.RateReport]) -> list[Item]:
    """The proven orderings among each report's rates, at each report's p."""
    items = []
    for rep in reports:
        p, suff, crit = rep.p, rep.quenched_sufficient_bound, rep.quenched_critical
        rho0, rhoc = rep.annealed_rho0, rep.annealed_rhoc
        items += [
            Item("sufficient-le-critical", suff <= crit + ROUNDING, {"sufficient": suff, "critical": crit}, p=p),
            Item("annealed-le-quenched", rhoc <= crit + ROUNDING,
                 {"annealed_rhoc": rhoc, "quenched_critical": crit}, p=p),
        ]
        pair = {"rho0": rho0, "rhoc": rhoc}
        if p >= 2.0:
            items.append(Item("rates-collapse", math.isclose(rho0, rhoc, rel_tol=ROUNDING), pair, p=p))
        elif rep.condition_flags.get("tilt_positive"):
            items.append(Item("rho0-le-rhoc", rho0 <= rhoc + ROUNDING, pair, p=p))
    return items


def unit_mean(name: str, means) -> list[Item]:
    """The item that every entry of the array `means`, exact means of a normalized population, is one."""
    err = float(abs(means - 1.0).max())
    return [Item(name, err <= EXACT_REL, {"max_abs_error": err})]


def partial_sum_error(moments, inc) -> float:
    """Worst relative error of E[W_k^2] against 1 + sum_{j<k} E|W_{j+1} - W_j|^2 over k."""
    closed = [1.0 + math.fsum(inc[:k]) for k in range(len(moments))]
    return max(abs(moment - c) / max(c, 1.0) for moment, c in zip(moments, closed))


def annealed_p2_partial_sums(env: Environment, n: int) -> list[Item]:
    """Second moments from the recursion table on the stationary law against the closed-form
    partial sums of the squared increments up to generation n, within relative EXACT_REL."""
    forms = exact_moments.p2_closed_forms(env)
    worst = partial_sum_error(
        exact_moments.annealed_u(env, 0.0, 2, n), [forms.increment_second_moment(k) for k in range(n)]
    )
    return [Item("p2-partial-sums", worst <= EXACT_REL, {"max_rel_error": worst})]


def quenched_p2_partial_sums(path: EnvPath, n: int) -> list[Item]:
    """Second moments from the recursion table along `path` against the partial sums of its
    squared increments up to generation n, within relative EXACT_REL."""
    worst = partial_sum_error(
        exact_moments.quenched_moments(path, 2, n).w_moments(2),
        exact_moments.quenched_increment_second_moments(path, n),
    )
    return [Item("quenched-p2-tail", worst <= EXACT_REL, {"max_rel_error": worst})]


def a_hat_partial_sums(env: Environment, n: int, rho: float) -> list[Item]:
    """On a mixture with q1 < 1, the gap between sup_k E[A_hat_k^2] and the table's partial sum
    to n against the closed-form tail, at min(rho, q1^(-1/4)): q1^(-1/4) is the geometric
    midpoint of 1 and the critical rate 1/sqrt(q1), so rho^2 q1 < 1 there; no item otherwise."""
    forms = exact_moments.p2_closed_forms(env)
    if not forms.summable:
        return []
    # two correctly rounded roots: q1 ** -0.25 rounds rho^2 q1 up to 1 at q1 = 1 - 2^-51
    rho = min(rho, math.sqrt(math.sqrt(1.0 / forms.q1)))
    sup = forms.sup_a_hat2(rho)
    gap = sup - exact_moments.a_hat_second_moment_partial(env, rho, n)
    remainder = forms.a_hat2_tail(rho, n)
    return [Item("a-hat-partial-sums", abs(gap - remainder) <= EXACT_REL * max(sup, 1.0),
                 {"a_hat_gap": gap, "a_hat_remainder_bound": remainder})]


def growth_envelope(env: Environment, n: int, orders) -> list[Item]:
    """Whether each order's scaled moments stay under the envelope up to n, and at least up to
    `exact_moments.ENVELOPE_HORIZON`, observing each order's largest relative excess over it."""
    envelopes = [exact_moments.growth_envelope(env, 0.0, r, max(n, exact_moments.ENVELOPE_HORIZON)) for r in orders]
    return [Item("growth-envelope", all(e.holds for e in envelopes),
                 {"orders": list(orders), "max_excess": [e.max_excess for e in envelopes]})]


def recursion_slack(env: Environment, n: int) -> list[Item]:
    """Least slack of the split-moment recursion (orders 3-4, s in {0, 1}) up to n, and at least up
    to `exact_moments.ENVELOPE_HORIZON`."""
    min_slack = min(
        float(exact_moments.recursion_inequality_slacks(env, s, r, max(n, exact_moments.ENVELOPE_HORIZON)).min())
        for r in (3, 4)
        for s in (0.0, 1.0)
    )
    return [Item("recursion-slack", min_slack >= -ROUNDING, {"min_slack": min_slack})]


def single_state_consistency(env: Environment, qtable: MomentTable) -> list[Item]:
    """On a one-state mixture, the annealed moment table against the path table `qtable` at
    its orders and generations, within relative TABLE_REL."""
    table = exact_moments.annealed_moment_table(env, 0.0, qtable.max_order, len(qtable.values) - 1)
    diff = float(np.max(np.abs(qtable.values - table.values) / np.maximum(np.abs(table.values), 1.0)))
    return [Item("single-state-consistency", diff <= TABLE_REL, {"max_rel_diff": diff})]


def identity(batch: TrajectoryBatch, keys) -> list[Item]:
    """The telescoped and accumulator forms of A_hat_n(rho) within IDENTITY_TOL, at each
    ("identity", rho, n) key inside the reducer's domain for this batch, once each."""
    items = []
    for _, rho, n in simulate.reduce_batch(batch, keys):
        residual = simulate.increment_identity_check(batch, rho, n)
        items.append(Item(None, residual <= IDENTITY_TOL, {"residual": residual, "tolerance": IDENTITY_TOL},
                          {"rho": rho, "n": n, "residual": residual}, rho=rho, n=n))
    return items


def sandwiches(batch: TrajectoryBatch, keys) -> list[Item]:
    """The square-function bracket of A_hat_n(rho) with SLACK_SIGMAS slack, at each
    ("bracket", p, rho, n) key inside the reducer's domain for this batch, once each, in
    order, from one reduction of every key."""
    items = []
    for _, p, rho, n in simulate.reduce_batch(batch, keys):
        sc = estimators.burkholder_sandwich(batch, p, rho, n)
        observed = {"a_norm": sc.a_norm, "lower": sc.lower, "upper": sc.upper}
        items.append(Item(None, sc.ok, observed, sc, p=p, rho=rho, n=n))
    return items


def stationary_criteria(crits, conds) -> list[Item]:
    """Markers that each p's moment-shrinkage criterion in `crits`, then its critical-rate
    hypotheses in `conds`, evaluate on the stationary law; they pass by construction and
    observe the values."""
    return ([Item("lp-criterion", True, {"value": c.mean_power_value, "holds": c.holds}, p=c.p) for c in crits]
            + [Item("critical-conditions", True, {"all_hold": c.all_hold}, p=c.p) for c in conds])


def series_probes(env: Environment, path: EnvPath, m_geo: float, ps) -> list[Item]:
    """The quadratic rate series along `path` at p = 2 below the critical rate sqrt(m_geo) and,
    unless the environment is degenerate, above it, then the increment variant below it at the
    first configured p in (1, 2), as `series.<name>`. Each item holds that its series avoids the
    verdict that the rate contradicts; its detail is the diagnostic's payload, with the last partial sum."""

    def probe(name, wrong_verdict, p, at_rho, variant, r=None, **observed):
        diag = rates.series_diagnostic(path, p, at_rho, variant, r=r)
        payload = {key: getattr(diag, key) for key in ("variant", "p", "r", "rho", "margin", "root_stat", "verdict")}
        return Item(f"series.{name}", diag.verdict != wrong_verdict,
                    {"verdict": diag.verdict, "root_stat": diag.root_stat} | observed,
                    payload | {"partial_sum": float(diag.partial_sums[-1])})

    rho_sub = max(1.0, 0.9 * math.sqrt(m_geo))
    rho_super = 1.2 * math.sqrt(m_geo)
    items = [probe("sub-rho", "diverging", 2.0, rho_sub, rates.VARIANT_QUADRATIC, rho=rho_sub)]
    if not env.is_degenerate:
        items.append(probe("super-rho", "converging", 2.0, rho_super, rates.VARIANT_QUADRATIC, rho=rho_super))
    small_p = [p for p in ps if 1.0 < p < 2.0]
    if small_p:
        items.append(probe("increment-sub-rho", "diverging", small_p[0], rho_sub, rates.VARIANT_INCREMENT, r=2.0))
    return items


class RateOracle(NamedTuple):
    """What is exact about E|W_{n+gap} - W_n|^p at one (mode, p); a None field is not known.
    `exact(n, gap)` is that moment and `bias(upto)` the bias of the proxy W_upto; the fit's
    interval should contain `predicted_rho`; `unbounded_q1`, a q1 >= 1, leaves nothing to fit;
    `bias_label`, set only where the bias has no oracle (annealed p < 2), says how to read the
    section's bias values."""

    exact: Callable[[int, int], float] | None = None
    bias: Callable[[int], float] | None = None
    predicted_rho: float | None = None
    unbounded_q1: float | None = None
    bias_label: str | None = None


def _gap_sums(inc) -> Callable[[int, int], float]:
    """exact(n, gap): E|W_{n+gap} - W_n|^2 is the sum of the increments' second moments `inc`."""
    return lambda n, gap: math.fsum(inc[n : n + gap])


def quenched_oracles(env: Environment, path: EnvPath, n_max: int, ps) -> dict[float, RateOracle]:
    """Each p's oracle along `path` to generation n_max: exact values and the bias at p = 2,
    which adds the path's increments from `upto` to its remainder beyond n_max.

    A fixed path has no future: its remainder is `quenched_p2_tail`'s bound, inf where a mean
    <= 1 is on the path. A mixture's quenched law conditions on the whole realized path, and
    the increments are orthogonal, so its remainder is the exact sum of the increments
    P_k^{-1} bar m_k(2), k >= n_max, along that path, extended by drawing it again from its own
    seed (`quenched_path` is prefix-stable). The stopping rule: draw 2 n_max, 4 n_max, ...
    states, and stop at the first doubling whose new states could not change the float sum even
    if each had the mixture's largest bar m(2), so a run of deterministic states does not end it
    early. The remainder is inf on a mixture that is not supercritical, whose sum need not
    converge, and where the sum could still change at TAIL_STATES (2^16) states. A mixture path
    without a seed raises ParameterError: it cannot be extended reproducibly."""
    inc = exact_moments.quenched_increment_second_moments(path, n_max)
    if not isinstance(env, IIDMixture):
        remainder = exact_moments.quenched_p2_tail(path, 0, n_max - 1).remainder
    elif path.seed is None:
        raise ParameterError("a mixture's quenched tail extends the path from its seed, and this path has none")
    else:
        remainder, length, bar2_max = math.inf, 2 * n_max, max(map(exact_moments._bar2, env.states))
        while env.is_supercritical and length <= TAIL_STATES and remainder == math.inf:
            longer = simulate.quenched_path(env, length, path.seed)
            tail = math.fsum(exact_moments.quenched_increment_second_moments(longer, length)[n_max:])
            envelope = bar2_max * math.fsum(np.exp(-longer.log_means[length // 2 : length]))
            remainder, length = (tail if tail + envelope == tail else math.inf), 2 * length
    p2 = RateOracle(exact=_gap_sums(inc), bias=lambda upto: math.fsum(inc[upto:]) + remainder)
    return {p: p2 if p == 2.0 else RateOracle() for p in ps}


def annealed_oracles(env: Environment, n_max: int, ps) -> dict[float, RateOracle]:
    """Each p's oracle on the stationary law: at p = 2 the closed forms give the exact values,
    and either the tail as bias and the rate 1/sqrt(q1) or, where q1 >= 1, unbounded second
    moments; at p < 2 the bias has no oracle, which the label says."""
    forms = exact_moments.p2_closed_forms(env)
    exact = _gap_sums([forms.increment_second_moment(k) for k in range(n_max)])
    p2 = (RateOracle(exact=exact, bias=forms.tail, predicted_rho=1.0 / math.sqrt(forms.q1))
          if forms.summable else RateOracle(exact=exact, unbounded_q1=forms.q1))
    small_p = RateOracle(bias_label="oracle-unbounded bias")
    return {p: p2 if p == 2.0 else small_p if p < 2.0 else RateOracle() for p in ps}


def exact_slack(estimates: list[LpEstimate], oracle: RateOracle) -> list[Item]:
    """Each estimate within SLACK_SIGMAS standard errors of the oracle's exact value, if it has one."""
    if oracle.exact is None:
        return []
    ok, worst = True, 0.0
    for est in estimates:
        dev = abs(est.value - oracle.exact(est.n, est.proxy_gap))
        slack = estimators.SLACK_SIGMAS * est.stderr
        ok = ok and dev <= slack + ROUNDING
        worst = max(worst, dev - slack)
    return [Item("estimates-match-exact", ok, {"worst_excess": worst}, p=estimates[0].p)]


# the DecayFit fields a rate section reports
FIT_PAYLOAD = ("fitted_rho", "ci_low", "ci_high", "window", "r_squared", "points_used")


def rate_fit(estimates: list[LpEstimate], oracle: RateOracle, fitting: bool = True) -> tuple[list[Item], dict]:
    """The estimates' slack against the oracle's exact values, then, if `fitting`, their decay fit
    against the exact curve's slope and the predicted rate, at the estimates' p. The oracle's
    bias, where it has one, at each estimate's proxy W_{n+gap} is set as its bias_bound first,
    so a section that is not fitted still reports it. With the
    oracle's `unbounded_q1` the estimates are reported and not fitted. Returns the items and the
    per-p section: p, the estimates and the oracle's bias_label where it has one, which says how
    to read the estimates' bias values; then, if `fitting`, fit, and fit_note or predicted_rho
    where they apply."""
    p = estimates[0].p
    if oracle.bias is not None:
        for est in estimates:
            est.bias_bound = oracle.bias(est.n + est.proxy_gap)
    items = exact_slack(estimates, oracle)
    section = {"p": p, "estimates": list(estimates)}
    if oracle.bias_label is not None:
        section["bias_label"] = oracle.bias_label
    if not fitting:
        return items, section
    section["fit"] = None
    if oracle.unbounded_q1 is not None:
        section["fit_note"] = "second moments are unbounded here; no finite rate predicted"
        return items + [Item("l2-unbounded-reported", True, {"q1": oracle.unbounded_q1}, p=p)], section
    if all(e.at_rounding for e in estimates):
        section["fit_note"] = "degenerate: all distances are zero up to rounding, nothing to fit"
        return items + [Item("degenerate-no-fit", True, {"estimates_checked": len(estimates)}, p=p)], section
    try:
        fit = estimators.fit_decay(estimates)
    except FitUnavailableError as exc:
        section["fit_note"] = str(exc)
        return items + [Item("fit-available", False, {"error": str(exc)}, p=p)], section
    section["fit"] = {key: getattr(fit, key) for key in FIT_PAYLOAD}
    items.append(Item("fit-available", True, {"fitted_rho": fit.fitted_rho}, p=p))
    if oracle.exact is not None:
        lo, hi = fit.window
        sel = [(e, x) for e in estimates if lo <= e.n <= hi and (x := oracle.exact(e.n, e.proxy_gap)) > 0]
        if len(sel) >= 2:
            ys = [math.log(x) / p for _, x in sel]
            slope_exact = float(estimators.wls_line([e.n for e, _ in sel], ys, [e.log_sd for e, _ in sel])[0][1])
            items.append(Item(
                "fit-matches-exact",
                abs(fit.slope - slope_exact) <= estimators.SLACK_SIGMAS * fit.slope_se + ROUNDING,
                {"fitted_rho": fit.fitted_rho, "exact_rho": math.exp(-slope_exact),
                 "slack_sigmas": estimators.SLACK_SIGMAS}, p=p,
            ))
    if oracle.predicted_rho is not None:
        section["predicted_rho"] = oracle.predicted_rho
        items.append(Item("ci-contains-predicted", fit.ci_low <= oracle.predicted_rho <= fit.ci_high,
                          {"predicted": oracle.predicted_rho, "ci": [fit.ci_low, fit.ci_high]}, p=p))
    return items, section
