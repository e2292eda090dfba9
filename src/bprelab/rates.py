"""Critical rates and moment conditions for the L^p convergence of W_n.

All formulas reduce to mean-power functionals of the environment, so every
value here is exact arithmetic. Quenched rates hinge on the geometric mean
of the offspring means; annealed rates on E[m_0^{1-p}] and E[m_0^{-p/2}].
The series diagnostics turn the summability criteria for a fixed path into
a finite root test with a stated margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import EnvPath, Environment
from .errors import ParameterError
from .offspring import OffspringLaw

SERIES_MARGIN = 0.02
RHO_GRID_POINTS = 20

VARIANT_INCREMENT = "increment"
VARIANT_QUADRATIC = "quadratic"


def _require_p(p: float) -> None:
    if not p > 1:
        raise ParameterError(f"p must exceed 1, got {p}")


def _require_supercritical(env: Environment) -> None:
    # geo_mean raises UnsupportedOperationError for a fixed path, before its growth rule is asked
    env.geo_mean()
    if not env.is_supercritical:
        raise ParameterError(
            "environment is not supercritical (geometric mean offspring mean not above 1); rates undefined"
        )


def quenched_bounds(env: Environment, p: float) -> tuple[float, float]:
    """(sufficient, critical) decay rates for the quenched L^p norm.

    With m the geometric mean offspring mean: any rho below
    min(m^{1-1/p}, m^{1/2}) is achievable, and m^{1/2} is the critical rate.
    """
    _require_p(p)
    _require_supercritical(env)
    m = env.geo_mean()
    critical = math.sqrt(m)
    return min(m ** (1.0 - 1.0 / p), critical), critical


def annealed_rates(env: Environment, p: float) -> tuple[float, float]:
    """(rho0, rhoc): annealed sufficient and critical L^p decay rates.

    For p in (1,2): rho0 = (E m_0^{1-p})^{-1/p}, rhoc = (E m_0^{-p/2})^{-1/p}.
    For p >= 2 both collapse to the min of the two expressions.
    """
    _require_p(p)
    _require_supercritical(env)
    rho0 = env.mean_power(1.0 - p) ** (-1.0 / p)
    rhoc = env.mean_power(-p / 2.0) ** (-1.0 / p)
    if p >= 2.0:
        both = min(rho0, rhoc)
        return both, both
    return rho0, rhoc


@dataclass(frozen=True)
class LpBoundednessCriterion:
    """Necessary-and-sufficient check for sup_n E[W_n^p] < infinity.

    holds iff E[m_0^{1-p}] < 1; the companion moment condition
    E[(Z_1/m_0)^p] < infinity is automatic for finite-support laws, so only
    its exact value is reported.
    """

    p: float
    holds: bool
    mean_power_value: float  # E m_0^{1-p}
    z1_norm_value: float  # E (Z_1/m_0)^p


def annealed_lp_criterion(env: Environment, p: float) -> LpBoundednessCriterion:
    _require_p(p)
    value = env.mean_power(1.0 - p)
    z1 = env.expect(lambda law: law.moment(p) / law.mean**p)
    return LpBoundednessCriterion(
        p=p, holds=bool(value < 1.0), mean_power_value=value, z1_norm_value=z1
    )


def _z1_log_plus(law: OffspringLaw) -> float:
    """E_xi[Z_1 log+ Z_1] = sum_i p_i * i * log(i) over i >= 1."""
    acc = 0.0
    for v, q in zip(law.values, law.probs):
        if v > 1:
            acc += q * v * math.log(v)
    return acc


@dataclass(frozen=True)
class CriticalRateConditions:
    """Hypotheses behind the annealed critical rate for p in (1,2).

    tilt_value is E[m_0^{-p/2} log m_0] (its sign decides whether the
    critical rate formula applies); zlogz_value is the exact
    E[m_0^{-p/2-1} Z_1 log+ Z_1], finite for finite-support laws;
    w1_degenerate is true when W_1 = 1 a.s.; all_hold is true when the tilt
    is positive and W_1 is not degenerate.
    """

    p: float
    tilt_value: float
    tilt_positive: bool
    zlogz_value: float
    w1_degenerate: bool
    all_hold: bool


def annealed_critical_conditions(env: Environment, p: float) -> CriticalRateConditions:
    if not 1.0 < p < 2.0:
        raise ParameterError(f"conditions are specific to p in (1,2), got {p}")
    tilt = env.expect(lambda law: law.mean ** (-p / 2.0) * law.log_mean)
    zlogz = env.expect(lambda law: law.mean ** (-p / 2.0 - 1.0) * _z1_log_plus(law))
    tilt_positive = bool(tilt > 0.0)
    degenerate = env.is_degenerate
    return CriticalRateConditions(
        p=p,
        tilt_value=tilt,
        tilt_positive=tilt_positive,
        zlogz_value=zlogz,
        w1_degenerate=degenerate,
        all_hold=tilt_positive and not degenerate,
    )


@dataclass(frozen=True)
class RateReport:
    """Every rate for one exponent p with the hypotheses behind them, serialization-ready.

    w1_degenerate is true when W_1 = 1 a.s.; criterion is the L^p
    boundedness criterion at p; conditions are the critical-rate hypotheses,
    set only for p in (1,2).
    """

    p: float
    m_geo: float
    quenched_sufficient_bound: float
    quenched_critical: float
    annealed_rho0: float
    annealed_rhoc: float
    w1_degenerate: bool
    criterion: LpBoundednessCriterion
    conditions: CriticalRateConditions | None


def rate_report(env: Environment, p: float) -> RateReport:
    """The rates, the L^p criterion and, for p in (1,2), the critical-rate conditions of a
    supercritical i.i.d. mixture at p."""
    sufficient, critical = quenched_bounds(env, p)
    rho0, rhoc = annealed_rates(env, p)
    return RateReport(
        p=p,
        m_geo=env.geo_mean(),
        quenched_sufficient_bound=sufficient,
        quenched_critical=critical,
        annealed_rho0=rho0,
        annealed_rhoc=rhoc,
        w1_degenerate=env.is_degenerate,
        criterion=annealed_lp_criterion(env, p),
        conditions=annealed_critical_conditions(env, p) if 1.0 < p < 2.0 else None,
    )


def default_rho_grid(critical: float) -> np.ndarray:
    """Geometric rho grid spanning [1.01, 1.2 * critical], bracketing the transition."""
    if critical <= 0:
        raise ParameterError("critical rate must be positive")
    hi = max(1.2 * critical, 1.02)
    return np.geomspace(1.01, hi, RHO_GRID_POINTS)


@dataclass(frozen=True)
class SeriesDiagnostic:
    """Finite summability probe for one rate series along a stored path.

    root_stat is the Cauchy root statistic, the mean of (term_n)^{1/n} over
    the last half of the path; the verdict compares it against 1 with the
    margin SERIES_MARGIN, which `margin` records. "inconclusive" covers the
    band [1-margin, 1+margin].
    """

    variant: str
    p: float
    r: float | None
    rho: float
    margin: float
    terms: np.ndarray
    partial_sums: np.ndarray
    root_stat: float
    verdict: str


def series_diagnostic(
    path: EnvPath,
    p: float,
    rho: float,
    variant: str,
    r: float | None = None,
) -> SeriesDiagnostic:
    """Root-test a convergence-rate series over the realized path.

    variant "increment" (p in (1,2], p <= r <= 2): terms
        rho^{pn} P_n^{p(1/r-1)} bar_m_n(r)^{p/r};
    variant "quadratic" (p >= 2): terms rho^{2n} P_n^{-1} bar_m_n(p)^{2/p}.
    """
    if len(path) < 8:
        raise ParameterError("series diagnostics need a path of length >= 8")
    if rho < 1.0:
        raise ParameterError("rho must be >= 1")
    n = len(path)
    log_p = path.log_means[:n]
    idx = np.arange(n)
    if variant == VARIANT_INCREMENT:
        if not 1.0 < p <= 2.0:
            raise ParameterError("increment variant needs p in (1,2]")
        if r is None or not p <= r <= 2.0:
            raise ParameterError("increment variant needs r in [p, 2]")
        bar = np.array([law.centered_abs_moment(r) for law in path.laws])
        log_weight = p * idx * math.log(rho) + p * (1.0 / r - 1.0) * log_p
        bar_power = p / r
    elif variant == VARIANT_QUADRATIC:
        if p < 2.0:
            raise ParameterError("quadratic variant needs p >= 2")
        bar = np.array([law.centered_abs_moment(p) for law in path.laws])
        log_weight = 2.0 * idx * math.log(rho) - log_p
        bar_power = 2.0 / p
    else:
        raise ParameterError(f"unknown series variant {variant!r}")

    positive = bar > 0.0
    log_terms = np.where(positive, log_weight + bar_power * np.log(np.where(positive, bar, 1.0)), -np.inf)
    terms = np.exp(log_terms)
    partial_sums = np.cumsum(terms)
    # Cauchy root statistic over the last half, in log space for stability.
    # Zero terms carry no growth information (they only help convergence),
    # so the average runs over the positive terms; all-zero tail means the
    # series is finite and the statistic is 0.
    window = np.arange(max(1, n // 2), n)
    in_window = positive[window]
    if in_window.any():
        root_stat = float(np.exp(log_terms[window][in_window] / window[in_window]).mean())
    else:
        root_stat = 0.0
    if root_stat < 1.0 - SERIES_MARGIN:
        verdict = "converging"
    elif root_stat > 1.0 + SERIES_MARGIN:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return SeriesDiagnostic(
        variant=variant,
        p=p,
        r=r if variant == VARIANT_INCREMENT else None,
        rho=rho,
        margin=SERIES_MARGIN,
        terms=terms,
        partial_sums=partial_sums,
        root_stat=root_stat,
        verdict=verdict,
    )
