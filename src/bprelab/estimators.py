"""Monte Carlo reductions: L^p norms, decay-rate fits and the Burkholder sandwich.

Every estimator drops capped replicas (their trajectories are frozen, not
simulated) and reports the dropped fraction; extinct replicas stay in, since
W = 0 is genuine mass of the limit law. An estimate is built from the
simulator's per-block sums (simulate.partials) over the N uncapped rows: its
value is the rows' mean, and its stderr their sample sd over sqrt(N). A
moment estimate also carries its sample covariance with every other member
of its family (the same p and gap) over N, so a decay fit's interval
follows from the covariance of the points it fits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimateUnavailableError, FitUnavailableError, ParameterError
from .simulate import BRACKET, MOMENT, TrajectoryBatch, partials

MIN_REPLICAS = 100
# the fewest consecutive points a decay fit takes
MIN_FIT_POINTS = 4
CI_Z = 1.96

# standard errors of slack a Monte Carlo check allows: the sandwich's, and the
# harness's against exact values and exact slopes
SLACK_SIGMAS = 4.0

# |W_{n+gap} - W_n| below ~1e-10 is indistinguishable from accumulated
# rounding of the P_n normalization; p-th powers of such values carry no
# information and are treated as exact zeros by the fitter.
ROUNDOFF_DISTANCE = 1e-10


def _rows_used(batch: TrajectoryBatch) -> int:
    """How many rows every estimate uses: the uncapped ones, at least MIN_REPLICAS."""
    used = int(np.count_nonzero(batch.uncapped))
    if used < MIN_REPLICAS:
        raise EstimateUnavailableError(f"only {used} uncapped replicas; need >= {MIN_REPLICAS}")
    return used


@dataclass
class LpEstimate:
    """Sample estimate of E|W_{n+gap} - W_n|^p (or E W_n^p when gap == 0).

    covariance[m] is the sampling covariance of this estimate and the one at
    m of its family, m = 0..n_max - gap: the uncapped rows' sample covariance
    of x_n and x_m over their count, since every n reads the same replicas.
    Its entry at n is stderr^2, floored at 0. A hand-built estimate may leave
    it None; the decay fit then takes the estimate as uncorrelated with the
    others, a diagonal covariance.
    """

    p: float
    n: int
    value: float
    stderr: float
    proxy_gap: int
    capped_fraction: float
    replicas_used: int
    bias_bound: float | None = None
    covariance: np.ndarray | None = None

    @property
    def at_rounding(self) -> bool:
        """Whether the value is at most ROUNDOFF_DISTANCE to the power p: rounding size, carrying no rate."""
        return self.value <= ROUNDOFF_DISTANCE**self.p

    @property
    def log_sd(self) -> float:
        """The delta-method stderr of log(value)/p: the weight of the estimate's point in a log-linear fit."""
        return self.stderr / (self.p * self.value)


def _estimate_from(batch: TrajectoryBatch, p: float, n: int, gap: int) -> LpEstimate:
    sums = partials(batch, (MOMENT, p, n, gap)).sum(axis=0)
    used = _rows_used(batch)
    means = sums[:, 0] / used
    covariance = (sums[n, 1:] - sums[n, 0] * means) / ((used - 1) * used)
    return LpEstimate(
        p=p,
        n=n,
        value=float(means[n]),
        stderr=math.sqrt(max(covariance[n], 0.0)),
        proxy_gap=gap,
        capped_fraction=batch.capped_fraction,
        replicas_used=used,
        covariance=covariance,
    )


def lp_norm(batch: TrajectoryBatch, p: float, n: int, proxy_gap: int) -> LpEstimate:
    """Mean of |W_{n+gap} - W_n|^p over uncapped replicas; partials refuses an (n, gap) past n_max."""
    if p <= 1.0:
        raise ParameterError("p must be > 1")
    if proxy_gap < 1:
        raise ParameterError("gap must be >= 1")
    return _estimate_from(batch, p, n, proxy_gap)


def w_moment(batch: TrajectoryBatch, p: float, n: int) -> LpEstimate:
    """Mean of W_n^p over uncapped replicas (proxy_gap 0 marks a plain moment); partials refuses an n past n_max."""
    if p <= 0.0:
        raise ParameterError("p must be > 0")
    return _estimate_from(batch, p, n, 0)


@dataclass
class DecayFit:
    """Weighted log-linear fit of an L^p-norm sequence against n.

    slope_se is the delta-method stderr of the slope under the points'
    sampling covariance (see fit_decay), and the interval is the slope's
    +- CI_Z slope_se mapped to rho.
    """

    fitted_rho: float
    ci_low: float
    ci_high: float
    window: tuple[int, int]
    r_squared: float
    slope: float
    slope_se: float
    points_used: int


def wls_line(xs, ys, sds) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted least-squares line ys ~ b0 + b1 xs with weights 1/sds^2.

    Standard deviations are floored at 1e-12. Returns (beta, cov, design,
    weights), with cov the inverse of the weighted Gram matrix.
    """
    wts = 1.0 / np.maximum(np.asarray(sds, dtype=float), 1e-12) ** 2
    x_mat = np.column_stack([np.ones(len(xs)), np.asarray(xs, dtype=float)])
    gram = x_mat.T @ (wts[:, None] * x_mat)
    beta = np.linalg.solve(gram, x_mat.T @ (wts * np.asarray(ys)))
    return beta, np.linalg.inv(gram), x_mat, wts


def fit_decay(estimates: list[LpEstimate]) -> DecayFit:
    """Fit value_n ~ C rho^{-pn} by weighted least squares on log(value)/p.

    Points enter the window only where the proxy bias is under 10% of the
    value: a caller-supplied bias_bound when available, otherwise the
    heuristic value * rho_prelim^{-gap} with rho_prelim from an unweighted
    pass. The fit uses the longest admissible run of consecutive points and
    needs at least MIN_FIT_POINTS of them.

    The slope is c . ys, c the slope row of (X^T W X)^-1 X^T W, and ys_n =
    log(value_n)/p moves by d value_n / (p value_n); so its variance is
    (Jc)^T S (Jc), J = diag(1/(p value_n)) and S the window's sampling
    covariance, read from the estimates' covariance rows (see LpEstimate),
    which index one family: one batch's estimates at one p and gap.
    With a diagonal S, stderr_n^2, this is the weighted fit's own
    [(X^T W X)^-1]_11.
    """
    if not estimates:
        raise FitUnavailableError("no estimates given")
    p = estimates[0].p
    if any(e.p != p for e in estimates):
        raise ParameterError("estimates mix different p values")
    est = sorted(estimates, key=lambda e: e.n)

    def usable(e: LpEstimate) -> bool:
        return not e.at_rounding and np.isfinite(e.value) and e.stderr < 0.5 * e.value

    prelim = [e for e in est if usable(e)]
    rho_prelim = 1.0
    if len(prelim) >= 2:
        slope = wls_line([e.n for e in prelim], np.log([e.value for e in prelim]) / p, np.ones(len(prelim)))[0][1]
        if slope < 0:
            rho_prelim = float(np.exp(-slope))

    def admissible(e: LpEstimate) -> bool:
        bias = e.bias_bound if e.bias_bound is not None else e.value * rho_prelim ** (-e.proxy_gap)
        return usable(e) and bias < 0.1 * e.value

    window: list[LpEstimate] = []
    for ok, run in itertools.groupby(est, key=admissible):
        run = list(run)
        if ok and len(run) > len(window):  # strict: the first longest run wins
            window = run
    if len(window) < MIN_FIT_POINTS:
        raise FitUnavailableError(f"longest admissible run has {len(window)} points; need >= {MIN_FIT_POINTS}")
    xs = np.array([e.n for e in window], dtype=float)
    ys = np.log([e.value for e in window]) / p

    beta, cov, x_mat, wts = wls_line(xs, ys, [e.log_sd for e in window])
    slope = float(beta[1])
    jc = (cov @ (x_mat.T * wts))[1] / (p * np.array([e.value for e in window]))
    sampling = [[e.stderr**2 if e.n == f.n else 0.0 if e.covariance is None else e.covariance[f.n]
                 for f in window] for e in window]
    se_slope = math.sqrt(max(jc @ np.array(sampling) @ jc, 0.0))

    resid = ys - x_mat @ beta
    y_bar = float(np.average(ys, weights=wts))
    tss = float(np.sum(wts * (ys - y_bar) ** 2))
    rss = float(np.sum(wts * resid**2))
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0

    return DecayFit(
        fitted_rho=math.exp(-slope),
        ci_low=math.exp(-(slope + CI_Z * se_slope)),
        ci_high=math.exp(-(slope - CI_Z * se_slope)),
        window=(int(xs[0]), int(xs[-1])),
        r_squared=r_squared,
        slope=slope,
        slope_se=se_slope,
        points_used=len(window),
    )


def burkholder_constants(p: float) -> tuple[float, float]:
    """(a_p, b_p) with a_p ||Q||_p <= ||A_hat||_p <= b_p ||Q||_p."""
    if p <= 1.0:
        raise ParameterError("p must be > 1")
    return (p - 1.0) / (18.0 * p**1.5), 18.0 * p**1.5 / math.sqrt(p - 1.0)


@dataclass
class SandwichCheck:
    """Observed ||A_hat_n||_p against the square-function bracket."""

    p: float
    rho: float
    n: int
    a_norm: float
    q_norm: float
    a_stderr: float
    q_stderr: float
    lower: float
    upper: float
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def _norm_with_stderr(sums: np.ndarray, used: int, p: float) -> tuple[float, float]:
    """(mean |x|^p)^{1/p} with a delta-method stderr, from the per-block sums of |x|^p and of
    its square over the used rows."""
    total, square = sums.sum(axis=0).tolist()
    m = total / used
    if m == 0.0:
        return 0.0, 0.0
    norm = m ** (1.0 / p)
    return norm, math.sqrt(max(square - total * m, 0.0) / ((used - 1) * used)) * norm / (p * m)


def burkholder_sandwich(batch: TrajectoryBatch, p: float, rho: float, n: int) -> SandwichCheck:
    """Check a_p ||Q_n||_p <= ||A_hat_n||_p <= b_p ||Q_n||_p on the batch.

    (rho, n) is any key that the reducer's bracket domain admits. Both
    inequalities get a slack of SLACK_SIGMAS combined standard errors, so a
    pass is Monte Carlo evidence rather than an exact certificate.
    """
    a_p, b_p = burkholder_constants(p)
    a_sums, q_sums = partials(batch, (BRACKET, p, rho, n))
    used = _rows_used(batch)
    a_norm, a_se = _norm_with_stderr(a_sums, used, p)
    q_norm, q_se = _norm_with_stderr(q_sums, used, p)
    lower, upper = a_p * q_norm, b_p * q_norm
    lower_ok = lower <= a_norm + SLACK_SIGMAS * math.hypot(a_p * q_se, a_se)
    upper_ok = a_norm <= upper + SLACK_SIGMAS * math.hypot(b_p * q_se, a_se)
    if a_norm <= ROUNDOFF_DISTANCE and q_norm <= ROUNDOFF_DISTANCE:
        # both sides are rounding residue of a degenerate batch: the exact
        # quantities are zero and the bracket holds trivially
        lower = upper = 0.0
        lower_ok = upper_ok = True
    return SandwichCheck(
        p=p,
        rho=rho,
        n=n,
        a_norm=a_norm,
        q_norm=q_norm,
        a_stderr=a_se,
        q_stderr=q_se,
        lower=lower,
        upper=upper,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
    )
