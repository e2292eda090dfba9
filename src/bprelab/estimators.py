"""Monte Carlo reductions: L^p norms, decay-rate fits and the Burkholder sandwich.

Every estimator drops capped replicas (their trajectories are frozen, not
simulated) and reports the dropped fraction; extinct replicas stay in, since
W = 0 is genuine mass of the limit law. An estimate is built from the
simulator's per-piece sums (simulate.partials): its mean is their
math.fsum over the uncapped rows, and its standard error comes from the
means of N_BATCHES fixed row ranges of all replicas (np.array_split's
chunks), each over its uncapped rows; a chunk without one has no mean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimateUnavailableError, FitUnavailableError, ParameterError
from .simulate import BRACKET, MOMENT, N_BATCHES, TrajectoryBatch, partials  # N_BATCHES: the chunks' count

MIN_REPLICAS = 100
CI_Z = 1.96

# standard errors of slack a Monte Carlo check allows: the sandwich's, and the
# harness's against exact values and exact slopes
SLACK_SIGMAS = 4.0

# |W_{n+gap} - W_n| below ~1e-10 is indistinguishable from accumulated
# rounding of the P_n normalization; p-th powers of such values carry no
# information and are treated as exact zeros by the fitter.
ROUNDOFF_DISTANCE = 1e-10


def _means(batch: TrajectoryBatch, sums: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean over the uncapped rows and the batch means, from per-piece sums over them.

    math.fsum adds the pieces of all rows, and of each batch-means chunk,
    whose mean is over its uncapped rows; a chunk without one has no mean.
    """
    firsts, counts = batch.chunk_pieces
    values = sums.tolist()
    means = [math.fsum(values[a:b]) / sum(counts[a:b]) for a, b in zip(firsts, firsts[1:]) if sum(counts[a:b])]
    return math.fsum(values) / sum(counts), np.array(means)


def _stderr_of(means: np.ndarray) -> float:
    if len(means) < 2:
        return float("inf")
    return float(means.std(ddof=1) / math.sqrt(len(means)))


def _rows_used(batch: TrajectoryBatch) -> int:
    """How many rows every estimate uses: the uncapped ones, at least MIN_REPLICAS."""
    used = sum(batch.chunk_pieces[1])
    if used < MIN_REPLICAS:
        raise EstimateUnavailableError(f"only {used} uncapped replicas; need >= {MIN_REPLICAS}")
    return used


@dataclass
class LpEstimate:
    """Sample estimate of E|W_{n+gap} - W_n|^p (or E W_n^p when gap == 0).

    batch_values are the 30 contiguous batch means behind stderr; the decay
    fitter uses them to propagate the cross-n correlation (every n shares
    the same replicas) into the slope's confidence interval.
    """

    p: float
    n: int
    value: float
    stderr: float
    proxy_gap: int
    capped_fraction: float
    replicas_used: int
    bias_bound: float | None = None
    batch_values: np.ndarray | None = None


def _estimate_from(batch: TrajectoryBatch, p: float, n: int, gap: int) -> LpEstimate:
    sums = partials(batch, (MOMENT, p, n, gap))
    used = _rows_used(batch)
    value, means = _means(batch, sums)
    return LpEstimate(
        p=p,
        n=n,
        value=value,
        stderr=_stderr_of(means),
        proxy_gap=gap,
        capped_fraction=batch.capped_fraction,
        replicas_used=used,
        batch_values=means,
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

    ci_method is "batch-curves" when the slope spread was measured across
    the per-batch curves (the default whenever batch means are available;
    robust to the shared-replica correlation between n's), else "wls-cov".
    """

    fitted_rho: float
    ci_low: float
    ci_high: float
    window: tuple[int, int]
    r_squared: float
    slope: float
    slope_se: float
    points_used: int
    ci_method: str = "wls-cov"


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
    needs at least 4 of them.
    """
    if not estimates:
        raise FitUnavailableError("no estimates given")
    p = estimates[0].p
    if any(e.p != p for e in estimates):
        raise ParameterError("estimates mix different p values")
    est = sorted(estimates, key=lambda e: e.n)
    floor = ROUNDOFF_DISTANCE**p

    def usable(e: LpEstimate) -> bool:
        return e.value > floor and np.isfinite(e.value) and e.stderr < 0.5 * e.value

    prelim = [e for e in est if usable(e)]
    rho_prelim = 1.0
    if len(prelim) >= 2:
        slope = wls_line([e.n for e in prelim], np.log([e.value for e in prelim]) / p, np.ones(len(prelim)))[0][1]
        if slope < 0:
            rho_prelim = float(np.exp(-slope))

    def admissible(e: LpEstimate) -> bool:
        if not usable(e):
            return False
        bias = e.bias_bound if e.bias_bound is not None else e.value * rho_prelim ** (-e.proxy_gap)
        return bias < 0.1 * e.value

    window: list[LpEstimate] = []
    for ok, run in itertools.groupby(est, key=admissible):
        run = list(run)
        if ok and len(run) > len(window):  # strict: the first longest run wins
            window = run
    if len(window) < 4:
        raise FitUnavailableError(
            f"longest admissible run has {len(window)} points; need >= 4"
        )
    xs = np.array([e.n for e in window], dtype=float)
    ys = np.log([e.value for e in window]) / p
    sds = [e.stderr / (p * e.value) for e in window]

    beta, cov, x_mat, wts = wls_line(xs, ys, sds)
    slope = float(beta[1])
    se_slope = math.sqrt(cov[1, 1])
    ci_method = "wls-cov"

    batch_slopes = _batch_curve_slopes(window, x_mat, wts, p)
    if batch_slopes is not None:
        se_slope = _stderr_of(batch_slopes)
        ci_method = "batch-curves"

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
        ci_method=ci_method,
    )


def _batch_curve_slopes(
    window: list[LpEstimate], x_mat: np.ndarray, wts: np.ndarray, p: float
) -> np.ndarray | None:
    """Slope of each batch's own curve, for a correlation-aware stderr.

    The per-n estimates come from the same replicas, so their errors are
    correlated; refitting the window on every batch's means and spreading
    the slopes measures that correlation instead of assuming it away.
    """
    mats = [e.batch_values for e in window]
    if any(m is None for m in mats):
        return None
    counts = {len(m) for m in mats}
    if len(counts) != 1 or counts.pop() < 8:
        return None
    curves = np.stack(mats, axis=1)  # (batches, window length)
    if np.any(curves <= 0.0):
        return None
    # wls_line has solved this Gram matrix, so it is not singular; its cov would round differently
    gram = x_mat.T @ (wts[:, None] * x_mat)
    rhs = (wts * (np.log(curves) / p)) @ x_mat
    return np.linalg.solve(gram, rhs.T)[1]


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


def _norm_with_stderr(batch: TrajectoryBatch, sums: np.ndarray, p: float) -> tuple[float, float]:
    """(mean |x|^p)^{1/p} with a delta-method stderr, from the per-piece sums of |x|^p."""
    m, means = _means(batch, sums)
    if m == 0.0:
        return 0.0, 0.0
    norm = m ** (1.0 / p)
    return norm, _stderr_of(means) * norm / (p * m)


def burkholder_sandwich(batch: TrajectoryBatch, p: float, rho: float, n: int) -> SandwichCheck:
    """Check a_p ||Q_n||_p <= ||A_hat_n||_p <= b_p ||Q_n||_p on the batch.

    (rho, n) is any key that the reducer's bracket domain admits. Both
    inequalities get a slack of SLACK_SIGMAS combined standard errors, so a
    pass is Monte Carlo evidence rather than an exact certificate.
    """
    a_p, b_p = burkholder_constants(p)
    a_sums, q_sums = partials(batch, (BRACKET, p, rho, n))
    _rows_used(batch)
    a_norm, a_se = _norm_with_stderr(batch, a_sums, p)
    q_norm, q_se = _norm_with_stderr(batch, q_sums, p)
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
