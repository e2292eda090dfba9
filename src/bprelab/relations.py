"""Relations: pure functions from an environment, a path, a batch or estimates,
and sizes, to the check items that judge them.

The suites decide where a relation applies (`harness._NEEDS` and the exact
suite's mixture branch) and call it there, at `run`'s sizes or at `verify`'s;
the rate oracles decide what is exact for the rate suites at each (mode, p);
`harness._Context.record` writes the items as checks. `identity` keeps only
the keys that its pass admits. The simulation and estimator layers are called
through their modules, so a wrapper installed on a module attribute sees
every call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import estimators, exact_moments, rates, simulate
from .environment import EnvPath, Environment, IIDMixture
from .errors import FitUnavailableError
from .estimators import LpEstimate
from .simulate import TrajectoryBatch

# the tolerances of checks whose two sides differ only by rounding: the
# increment identity's residual, and a relative error between exact values
IDENTITY_TOL = 1e-9
EXACT_REL = 1e-9
# the relative gap allowed between two routes to one exact moment table
TABLE_REL = 1e-10
# the rounding allowance of an inequality between two computed values
ROUNDING = 1e-12


class Item(NamedTuple):
    """One check, recorded as `<suite>.<suffix>` by `_Context.record`; `detail` is a whole section entry."""

    suffix: str
    statement: str
    passed: bool
    observed: dict
    detail: object = None


def p_tag(p: float) -> str:
    """The `p<p>` part of the check ids, suffixes and CSV names that a value of p keys."""
    return f"p{p:g}"


def rate_orderings(reports: list[rates.RateReport]) -> list[Item]:
    """The proven orderings among each report's rates, as `p<p>.<name>`."""
    items = []
    for rep in reports:
        tag = p_tag(rep.p)
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


def unit_mean(suffix: str, statement: str, means) -> list[Item]:
    """The item that every entry of the array `means`, exact means of a normalized population, is one."""
    err = float(abs(means - 1.0).max())
    return [Item(suffix, statement, err <= EXACT_REL, {"max_abs_error": err})]


def partial_sum_error(moments, inc) -> float:
    """Worst relative error of E[W_k^2] against 1 + sum_{j<k} E|W_{j+1} - W_j|^2 over k."""
    worst = 0.0
    for k, moment in enumerate(moments):
        closed = 1.0 + math.fsum(inc[:k])
        worst = max(worst, abs(moment - closed) / max(closed, 1.0))
    return worst


def annealed_p2_partial_sums(env: Environment, n: int) -> list[Item]:
    """Second moments from the recursion table on the stationary law against the closed-form
    partial sums of the squared increments up to generation n, within relative EXACT_REL."""
    forms = exact_moments.p2_closed_forms(env)
    worst = partial_sum_error(
        exact_moments.annealed_u(env, 0.0, 2, n), [forms.increment_second_moment(k) for k in range(n)]
    )
    statement = "second moments from the recursion match the closed-form partial sums"
    return [Item("p2-partial-sums", statement, worst <= EXACT_REL, {"max_rel_error": worst})]


def quenched_p2_partial_sums(path: EnvPath, n: int) -> list[Item]:
    """Second moments from the recursion table along `path` against the partial sums of its
    squared increments up to generation n, within relative EXACT_REL."""
    worst = partial_sum_error(
        exact_moments.quenched_moments(path, 2, n).w_moments(2),
        exact_moments.quenched_increment_second_moments(path, n),
    )
    statement = "along the realized path the second moments match the partial sums of the squared increments"
    return [Item("quenched-p2-tail", statement, worst <= EXACT_REL, {"max_rel_error": worst})]


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
    statement = "the weighted-increment second moments approach their closed-form sup within its tail"
    return [Item("a-hat-partial-sums", statement, abs(gap - remainder) <= EXACT_REL * max(sup, 1.0),
                 {"a_hat_gap": gap, "a_hat_remainder_bound": remainder})]


def growth_envelope(env: Environment, n: int, orders) -> list[Item]:
    """Whether each order's scaled moments stay under the envelope up to max(n, 10)."""
    holds = [exact_moments.growth_envelope_check(env, 0.0, r, max(n, 10)) for r in orders]
    statement = "scaled moment sequences stay under the polynomial-times-base envelope"
    return [Item("growth-envelope", statement, all(holds), {"orders": list(orders)})]


def recursion_slack(env: Environment, n: int) -> list[Item]:
    """Least slack of the split-moment recursion (orders 3-4, s in {0, 1}) up to max(n, 10)."""
    min_slack = min(
        float(exact_moments.recursion_inequality_slacks(env, s, r, max(n, 10)).min())
        for r in (3, 4)
        for s in (0.0, 1.0)
    )
    statement = "the split-moment recursion inequality holds with non-negative slack"
    return [Item("recursion-slack", statement, min_slack >= -ROUNDING, {"min_slack": min_slack})]


def identity(batch: TrajectoryBatch, keys) -> list[Item]:
    """The telescoped and accumulator forms of A_hat_n(rho) within IDENTITY_TOL, at each
    ("identity", rho, n) key inside the reducer's domain for this batch, once each."""
    statement = "the telescoped and accumulator forms of the weighted sum agree"
    items = []
    for _, rho, n in simulate.reduce_batch(batch, keys):
        residual = simulate.increment_identity_check(batch, rho, n)
        items.append(Item(f"rho{rho:.4g}.n{n}", statement, residual <= IDENTITY_TOL,
                          {"residual": residual, "tolerance": IDENTITY_TOL},
                          {"rho": rho, "n": n, "residual": residual}))
    return items


def sandwiches(batch: TrajectoryBatch, keys) -> list[Item]:
    """The square-function bracket of A_hat_n(rho) with SLACK_SIGMAS slack, at each
    ("bracket", p, rho, n) key in order, from one reduction of every key."""
    simulate.reduce_batch(batch, keys)
    statement = "the weighted-increment norm sits inside the square-function bracket"
    items = []
    for _, p, rho, n in keys:
        sc = estimators.burkholder_sandwich(batch, p, rho, n)
        observed = {"a_norm": sc.a_norm, "lower": sc.lower, "upper": sc.upper}
        items.append(Item(f"{p_tag(p)}.rho{rho:.4g}.n{n}", statement, sc.ok, observed, sc))
    return items


class RateOracle(NamedTuple):
    """What is exact about E|W_{n+gap} - W_n|^p at one (mode, p); a None field is not known.
    `exact(n, gap)` is that moment and `bias(upto)` the bias of the proxy W_upto; the fit's
    interval should contain `predicted_rho`; `unbounded_q1`, a q1 >= 1, leaves nothing to fit;
    `bias_label` says how to read the section's bias values."""

    exact: Callable[[int, int], float] | None = None
    bias: Callable[[int], float] | None = None
    predicted_rho: float | None = None
    unbounded_q1: float | None = None
    bias_label: str | None = None


def _gap_sums(inc) -> Callable[[int, int], float]:
    """exact(n, gap): E|W_{n+gap} - W_n|^2 is the sum of the increments' second moments `inc`."""
    return lambda n, gap: math.fsum(inc[n : n + gap])


def quenched_oracles(env: Environment, path: EnvPath, n_max: int, ps) -> dict[float, RateOracle]:
    """Each p's oracle along `path` to generation n_max: exact values and bias bounds at p = 2.
    The bias adds the path's increments from `upto` to its remainder beyond n_max; where that
    is infinite (a mean <= 1 on the path) on a mixture with q1 < 1, the remainder is the
    expectation over the i.i.d. future, b2 / (P_{n_max} (1 - q1)), labelled as not a bound."""
    inc = exact_moments.quenched_increment_second_moments(path, n_max)
    remainder = exact_moments.quenched_p2_tail(path, 0, n_max - 1).remainder
    label = None
    if math.isinf(remainder) and isinstance(env, IIDMixture):
        forms = exact_moments.p2_closed_forms(env)
        if forms.summable:
            remainder = forms.b2 * math.exp(-path.log_means[n_max]) / (1.0 - forms.q1)
            label = "expected tail over the i.i.d. future"
    p2 = RateOracle(exact=_gap_sums(inc), bias=lambda upto: math.fsum(inc[upto:]) + remainder,
                    bias_label=label)
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
    statement = "sampled moment distances sit within the Monte Carlo slack of the exact curve"
    return [Item(f"{p_tag(estimates[0].p)}.estimates-match-exact", statement, ok, {"worst_excess": worst})]


def rate_section(estimates: list[LpEstimate], oracle: RateOracle) -> dict:
    """The per-p section of a rate suite without its fit: p, the estimates, and the oracle's
    bias_label where it has one, which says how to read the estimates' bias values."""
    section = {"p": estimates[0].p, "estimates": list(estimates)}
    if oracle.bias_label is not None:
        section["bias_label"] = oracle.bias_label
    return section


# the DecayFit fields a rate section reports
FIT_PAYLOAD = ("fitted_rho", "ci_low", "ci_high", "window", "r_squared", "points_used")
FIT_AVAILABLE = "a decay-rate fit is available for a non-degenerate run"


def rate_fit(estimates: list[LpEstimate], oracle: RateOracle) -> tuple[list[Item], dict]:
    """The estimates' slack against the oracle's exact values, then their decay fit against the
    exact curve's slope and the predicted rate, as `p<p>.<name>`; with the oracle's
    `unbounded_q1` the estimates are reported and not fitted. Returns the items and the per-p
    section: p, estimates, fit, and bias_label, fit_note or predicted_rho where they apply."""
    p = estimates[0].p
    tag = p_tag(p)
    items = exact_slack(estimates, oracle)
    section = rate_section(estimates, oracle) | {"fit": None}
    if oracle.unbounded_q1 is not None:
        section["fit_note"] = "second moments are unbounded here; no finite rate predicted"
        statement = "an environment without bounded second moments is reported, not fitted"
        return items + [Item(f"{tag}.l2-unbounded-reported", statement, True,
                             {"q1": oracle.unbounded_q1})], section
    if all(e.value <= estimators.ROUNDOFF_DISTANCE**p for e in estimates):
        section["fit_note"] = "degenerate: all distances are zero up to rounding, nothing to fit"
        statement = "a deterministic population has zero distances and no decay rate to fit"
        return items + [Item(f"{tag}.degenerate-no-fit", statement, True,
                             {"estimates_checked": len(estimates)})], section
    try:
        fit = estimators.fit_decay(estimates)
    except FitUnavailableError as exc:
        section["fit_note"] = str(exc)
        return items + [Item(f"{tag}.fit-available", FIT_AVAILABLE, False, {"error": str(exc)})], section
    section["fit"] = {key: getattr(fit, key) for key in FIT_PAYLOAD}
    items.append(Item(f"{tag}.fit-available", FIT_AVAILABLE, True, {"fitted_rho": fit.fitted_rho}))

    if oracle.exact is not None:
        lo, hi = fit.window
        window = [(e, oracle.exact(e.n, e.proxy_gap)) for e in estimates if lo <= e.n <= hi]
        sel = [(e, x) for e, x in window if x > 0]
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
    if oracle.predicted_rho is not None:
        section["predicted_rho"] = oracle.predicted_rho
        statement = "the fitted rate's confidence interval contains the predicted critical rate"
        items.append(Item(f"{tag}.ci-contains-predicted", statement,
                          fit.ci_low <= oracle.predicted_rho <= fit.ci_high,
                          {"predicted": oracle.predicted_rho, "ci": [fit.ci_low, fit.ci_high]}))
    return items, section
