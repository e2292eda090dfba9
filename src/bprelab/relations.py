"""Relations: pure functions from an environment, a path, a batch or estimates,
and sizes, to the check items that judge them.

A relation returns its items, and none outside its domain. The suites and
`verify` call the same relations at their own sizes; `harness._Context.record`
writes the items as checks. The simulation and estimator layers are called
through their modules, so a wrapper installed on a module attribute sees
every call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import estimators, exact_moments, rates, simulate
from .environment import EnvPath, Environment, IIDMixture
from .errors import FitUnavailableError, ParameterError
from .estimators import LpEstimate
from .simulate import TrajectoryBatch

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


def p_tag(p: float) -> str:
    """The `p<p>` part of the check ids, suffixes and CSV names that a value of p keys."""
    return f"p{p:g}"


def relation(domain: str):
    """Name the domain outside which a relation yields no item; verify's skipped checks cite it."""

    def mark(fn):
        fn.domain = domain
        return fn

    return mark


@relation("a supercritical stationary mixture")
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


def partial_sum_error(moments, inc) -> float:
    """Worst relative error of E[W_k^2] against 1 + sum_{j<k} E|W_{j+1} - W_j|^2 over k."""
    worst = 0.0
    for k, moment in enumerate(moments):
        closed = 1.0 + math.fsum(inc[:k])
        worst = max(worst, abs(moment - closed) / max(closed, 1.0))
    return worst


@relation("a stationary mixture or an environment path")
def p2_partial_sums(env: Environment, n: int, path: EnvPath | None = None,
                    a_hat_rho: float | None = None) -> list[Item]:
    """Second moments from the recursion tables against the partial sums of the squared
    increments up to generation n, within relative EXACT_REL: along `path` when one is
    given, else on the stationary law. There `a_hat_rho` adds the gap between
    sup_k E[A_hat_k(rho)^2] and the table's partial sum against the closed-form tail, at
    rho = min(a_hat_rho, q1^(-1/4)), the geometric midpoint of 1 and the critical rate
    1/sqrt(q1), where rho^2 q1 = sqrt(q1) < 1 on every summable mixture."""
    if path is not None:
        worst = partial_sum_error(
            exact_moments.quenched_moments(path, 2, n).w_moments(2),
            exact_moments.quenched_increment_second_moments(path, n),
        )
        statement = (
            "along the realized path the second moments match the partial sums of the squared increments"
        )
        return [Item("quenched-p2-tail", statement, worst <= EXACT_REL, {"max_rel_error": worst})]
    forms = exact_moments.p2_closed_forms(env)
    worst = partial_sum_error(
        exact_moments.annealed_u(env, 0.0, 2, n), [forms.increment_second_moment(k) for k in range(n)]
    )
    items = [Item("p2-partial-sums", "second moments from the recursion match the closed-form partial sums",
                  worst <= EXACT_REL, {"max_rel_error": worst})]
    if a_hat_rho is None or not forms.summable:
        return items
    # two correctly rounded roots: q1 ** -0.25 rounds rho^2 q1 up to 1 at q1 = 1 - 2^-51
    rho = min(a_hat_rho, math.sqrt(math.sqrt(1.0 / forms.q1)))
    sup = forms.sup_a_hat2(rho)
    gap = sup - exact_moments.a_hat_second_moment_partial(env, rho, n)
    remainder = forms.a_hat2_tail(rho, n)
    statement = "the weighted-increment second moments approach their closed-form sup within its tail"
    items.append(Item("a-hat-partial-sums", statement, abs(gap - remainder) <= EXACT_REL * max(sup, 1.0),
                      {"a_hat_gap": gap, "a_hat_remainder_bound": remainder}))
    return items


@relation("a stationary mixture")
def growth_envelope(env: Environment, n: int, orders) -> list[Item]:
    """Whether each order's scaled moments stay under the envelope up to max(n, 10)."""
    if not isinstance(env, IIDMixture):
        return []
    holds = [exact_moments.growth_envelope_check(env, 0.0, r, max(n, 10)) for r in orders]
    statement = "scaled moment sequences stay under the polynomial-times-base envelope"
    return [Item("growth-envelope", statement, all(holds), {"orders": list(orders)})]


@relation("a stationary mixture")
def recursion_slack(env: Environment, n: int) -> list[Item]:
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


@relation("some rho > 1 and some n < n_max - 1")
def identity(batch: TrajectoryBatch, rhos, ns) -> list[Item]:
    """The telescoped and accumulator forms of A_hat_n(rho) within IDENTITY_TOL, at each rho and n
    that increment_identity_check admits for this batch, from one pass over the batch."""
    simulate.identity_residuals(batch, [(rho, n) for rho in rhos for n in ns])
    items = []
    for rho in rhos:
        for n in ns:
            try:
                residual = simulate.increment_identity_check(batch, rho, n)
            except ParameterError:
                continue
            statement = "the telescoped and accumulator forms of the weighted sum agree"
            items.append(Item(f"rho{rho:.4g}.n{n}", statement, residual <= IDENTITY_TOL,
                              {"residual": residual, "tolerance": IDENTITY_TOL},
                              {"rho": rho, "n": n, "residual": residual}))
    return items


# shared by the burkholder items and verify's burkholder-sandwich check
BRACKET = "the weighted-increment norm sits inside the square-function bracket"


@relation("rho >= 1 and n < n_max")
def sandwiches(batch: TrajectoryBatch, ps, rhos, ns) -> list[Item]:
    """The square-function bracket of A_hat_n(rho) with SLACK_SIGMAS slack, at each p, rho and n."""
    simulate.increment_sums(batch, [(rho, n) for rho in rhos for n in ns])
    items = []
    for p in ps:
        for rho in rhos:
            for n in ns:
                sc = estimators.burkholder_sandwich(batch, p, rho, n)
                observed = {"a_norm": sc.a_norm, "lower": sc.lower, "upper": sc.upper}
                items.append(Item(f"{p_tag(p)}.rho{rho:.4g}.n{n}", BRACKET, sc.ok, observed, sc))
    return items


@relation("exact values, which only p = 2 has")
def exact_slack(estimates: list[LpEstimate], exact_values) -> list[Item]:
    """Each estimate within SLACK_SIGMAS standard errors of its exact value; none without exact values."""
    if exact_values is None:
        return []
    ok, worst = True, 0.0
    for est, exact in zip(estimates, exact_values):
        dev, slack = abs(est.value - exact), estimators.SLACK_SIGMAS * est.stderr
        ok = ok and dev <= slack + ROUNDING
        worst = max(worst, dev - slack)
    statement = "sampled moment distances sit within the Monte Carlo slack of the exact curve"
    return [Item(f"{p_tag(estimates[0].p)}.estimates-match-exact", statement, ok, {"worst_excess": worst})]


# the DecayFit fields a rate section reports
FIT_PAYLOAD = ("fitted_rho", "ci_low", "ci_high", "window", "r_squared", "points_used")
FIT_AVAILABLE = "a decay-rate fit is available for a non-degenerate run"


@relation("estimates at one p")
def rate_fit(estimates: list[LpEstimate], exact_values, predicted_rho: float | None = None,
             unbounded_q1: float | None = None) -> list[Item]:
    """The estimates' slack against any exact values, then their decay fit against the exact
    curve's slope and the predicted rate, as `p<p>.<name>`; with `unbounded_q1`, the q1 >= 1
    of unbounded second moments, the estimates are reported and not fitted. Each item's detail
    holds the per-p section fields it settles: p, estimates, fit and fit_note, or predicted_rho."""
    p = estimates[0].p
    tag = p_tag(p)
    items = exact_slack(estimates, exact_values)
    section = {"p": p, "estimates": list(estimates), "fit": None}
    if unbounded_q1 is not None:
        note = "second moments are unbounded here; no finite rate predicted"
        statement = "an environment without bounded second moments is reported, not fitted"
        return items + [Item(f"{tag}.l2-unbounded-reported", statement, True, {"q1": unbounded_q1},
                             section | {"fit_note": note})]
    if all(e.value <= estimators.ROUNDOFF_DISTANCE**p for e in estimates):
        note = "degenerate: all distances are zero up to rounding, nothing to fit"
        statement = "a deterministic population has zero distances and no decay rate to fit"
        return items + [Item(f"{tag}.degenerate-no-fit", statement, True,
                             {"estimates_checked": len(estimates)}, section | {"fit_note": note})]
    try:
        fit = estimators.fit_decay(estimates)
    except FitUnavailableError as exc:
        return items + [Item(f"{tag}.fit-available", FIT_AVAILABLE, False, {"error": str(exc)},
                             section | {"fit_note": str(exc)})]
    section["fit"] = {key: getattr(fit, key) for key in FIT_PAYLOAD}
    items.append(Item(f"{tag}.fit-available", FIT_AVAILABLE, True, {"fitted_rho": fit.fitted_rho}, section))

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
