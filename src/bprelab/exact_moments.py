"""Exact moment engines: no sampling error anywhere in this module.

The conditional moment of a generation total is a polynomial in the parent
count, E[(sum_{i<=z} X_i)^k] = sum_j a_{k,j} z^j, whose coefficients a_{k,j}
are partial Bell polynomials in the cumulants of the offspring law. Chaining
that polynomial generation by generation gives quenched moment tables for a
fixed environment path; averaging the one-step coefficients over an i.i.d.
mixture (the next state is independent of the past) gives annealed tables,
including the weighted moments E[P_n^{-s} W_n^r]. The p=2 moments collapse
to closed geometric forms, kept separate as an independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .environment import EnvPath, Environment, IIDMixture
from .errors import ParameterError, TableOverflowError, UnsupportedOperationError
from .offspring import OffspringLaw

MAX_ORDER = 6
OVERFLOW_LIMIT = 1e300
# the fewest generations a growth-envelope or recursion-slack check runs over
ENVELOPE_HORIZON = 10
# a law's bar m(2) = E|X/m - 1|^2, computed once per distinct law
_bar2 = functools.cache(functools.partial(OffspringLaw.centered_abs_moment, p=2.0))


@functools.cache
def conditional_moment_coeffs(law: OffspringLaw, k_max: int) -> np.ndarray:
    """Coefficients a[k, j] of E[(sum of z iid draws)^k] = sum_j a[k,j] z^j, k <= k_max.

    The array has shape (k_max+1, k_max+1), is lower-triangular with
    a[0,0] = 1, and is shared between calls, so it is read-only.
    a[k, j] is the partial Bell polynomial B_{k,j} of the law's cumulants:
    the cumulant generating function of a sum of z iid draws is z times the
    single-draw one, so moments of the sum are Bell polynomials in
    (z*kappa_1, z*kappa_2, ...), i.e. polynomials in z with these coefficients.
    """
    if not 1 <= k_max <= MAX_ORDER:
        raise ParameterError(f"moment order must be in 1..{MAX_ORDER}, got {k_max}")
    kappa = law.cumulants(k_max)
    a = np.zeros((k_max + 1, k_max + 1))
    a[0, 0] = 1.0
    for k in range(1, k_max + 1):
        for j in range(1, k + 1):
            acc = 0.0
            for i in range(1, k - j + 2):
                acc += math.comb(k - 1, i - 1) * kappa[i - 1] * a[k - i, j - 1]
            a[k, j] = acc
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MomentTable:
    """Exact moments of Z_n, weighted by P_n^{-s}.

    values[n, j] holds E[P_n^{-s} Z_n^j] in an annealed table and
    P_n^{-s} * E_xi[Z_n^j] in a quenched one. A quenched table is the one
    that carries the path's log P_n, so W_n moments can be recovered by
    normalization.
    """

    s: float
    max_order: int
    values: np.ndarray  # shape (n_max+1, max_order+1)
    log_means: np.ndarray | None = None

    def w_moments(self, r: int) -> np.ndarray:
        """Quenched E_xi[W_n^r] for all n; requires a plain (s=0) quenched table."""
        if self.s != 0.0 or self.log_means is None:
            raise ParameterError("W-moment normalization needs a plain quenched table")
        if not 1 <= r <= self.max_order:
            raise ParameterError(f"order {r} outside table range 1..{self.max_order}")
        # in log space: E W_n^r = exp(log E Z_n^r - r log P_n)
        return np.exp(np.log(self.values[:, r]) - r * self.log_means)


def _check_overflow(row: np.ndarray, n: int) -> None:
    bad = np.where(~(np.abs(row) < OVERFLOW_LIMIT))[0]
    if bad.size:
        k = int(bad[0])
        raise TableOverflowError(n, k, float(row[k]))


def quenched_moments(path: EnvPath, r_max: int, n_max: int) -> MomentTable:
    """Plain quenched moments M[n, k] = E_xi[Z_n^k] along a fixed path."""
    # at n_max = 0 no coefficients are asked for, so the order range is refused here too
    if not 1 <= r_max <= MAX_ORDER:
        raise ParameterError(f"r_max must be in 1..{MAX_ORDER}")
    if n_max < 0 or n_max > len(path):
        raise ParameterError(f"n_max {n_max} exceeds path length {len(path)}")
    m = np.ones((n_max + 1, r_max + 1))
    for n in range(n_max):
        m[n + 1, 1:] = conditional_moment_coeffs(path.laws[n], r_max)[1:, 1:] @ m[n, 1:]
        _check_overflow(m[n + 1], n + 1)
    return MomentTable(
        s=0.0,
        max_order=r_max,
        values=m,
        log_means=path.log_means[: n_max + 1].copy(),
    )


def annealed_moment_table(env: Environment, s: float, r_max: int, n_max: int) -> MomentTable:
    """Annealed table h[n, k] = E[P_n^{-s} Z_n^k] for an i.i.d. mixture.

    One linear transfer matrix T[k, j] = E[m_0^{-s} a_{k,j}(xi_0)] advances
    the whole row per generation; this is exact because xi_n is independent
    of generation n's population. conditional_moment_coeffs refuses an order
    r_max outside 1..MAX_ORDER.
    """
    if not isinstance(env, IIDMixture):
        raise UnsupportedOperationError("annealed tables need an i.i.d. mixture environment")
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")
    t = sum(weight * state.mean ** (-s) * conditional_moment_coeffs(state, r_max)
            for state, weight in zip(env.states, env.weights))
    h = np.ones((n_max + 1, r_max + 1))
    for n in range(n_max):
        h[n + 1] = t @ h[n]
        _check_overflow(h[n + 1], n + 1)
    return MomentTable(s=float(s), max_order=r_max, values=h)


def annealed_u(env: Environment, s: float, r: int, n_max: int) -> np.ndarray:
    """The weighted moments u_n = E[P_n^{-s} W_n^r] for n = 0..n_max.

    Since W_n^r = P_n^{-r} Z_n^r, this is the annealed table with exponent
    s + r read at order r.
    """
    table = annealed_moment_table(env, s + r, r, n_max)
    return table.values[:, r].copy()


@dataclass(frozen=True)
class P2ClosedForms:
    """Closed second-moment forms for an i.i.d. mixture.

    q1 = E[1/m_0] and b2 = E[bar m_0(2)] (the mean normalized offspring
    variance). The squared increments are E|W_{k+1} - W_k|^2 = b2 * q1^k, so
    sup E[W_n^2], the tail E|W - W_n|^2 and sup E[A_hat_n(rho)^2] are all
    geometric tails of ratio q1 or rho^2 q1; `_tail` alone decides where one
    is finite, and a divergent one is inf.
    """

    q1: float
    b2: float

    @property
    def summable(self) -> bool:
        return self.q1 < 1.0

    def _tail(self, ratio: float, n: int) -> float:
        """b2 * ratio^n / (1 - ratio): 0 when b2 = 0, inf when ratio >= 1."""
        if self.b2 == 0.0:
            return 0.0
        if ratio >= 1.0:
            return math.inf
        return self.b2 * ratio**n / (1.0 - ratio)

    def sup_w2(self) -> float:
        """sup_n E[W_n^2] = 1 + b2/(1 - q1)."""
        return 1.0 + self.tail(0)

    def tail(self, n: int) -> float:
        """E|W - W_n|^2 = b2 * q1^n / (1 - q1)."""
        return self._tail(self.q1, n)

    def increment_second_moment(self, n: int) -> float:
        """E|W_{n+1} - W_n|^2 = q1^n * b2."""
        return self.q1**n * self.b2

    def sup_a_hat2(self, rho: float) -> float:
        """sup_n E[A_hat_n(rho)^2] = b2/(1 - rho^2 q1)."""
        return self.a_hat2_tail(rho, 0)

    def a_hat2_tail(self, rho: float, n: int) -> float:
        """sup_k E[A_hat_k(rho)^2] less its first n terms: b2 (rho^2 q1)^n / (1 - rho^2 q1)."""
        return self._tail(rho * rho * self.q1, n)


def p2_closed_forms(env: Environment) -> P2ClosedForms:
    """The closed p=2 forms of a mixture; a fixed path, which has no stationary law, refuses mean_power."""
    return P2ClosedForms(q1=env.mean_power(-1.0), b2=env.expect(_bar2))


def a_hat_second_moment_partial(env: Environment, rho: float, n_terms: int) -> float:
    """Partial sum of rho^{2k} E|W_{k+1} - W_k|^2, k < n_terms, via the exact table.

    The increment second moments come from differences of the table's E[W_n^2]
    (orthogonality of martingale increments), so this is an engine-side value
    that can be compared against the closed form.
    """
    if n_terms < 1:
        raise ParameterError("need at least one term")
    w2 = annealed_u(env, 0.0, 2, n_terms)
    diffs = np.diff(w2)
    k = np.arange(n_terms)
    return float(math.fsum(rho ** (2 * k) * diffs))


@dataclass(frozen=True)
class QuenchedTail:
    """Two-sided enclosure of the quenched tail sum_{k>=n} P_k^{-1} bar m_k(2).

    lower is the partial sum to the horizon; remainder is a geometric bound
    on the terms beyond it, finite only when every mean up to the horizon
    exceeds 1 (or zero when every state up to it is deterministic), and
    upper = lower + remainder.
    """

    n: int
    horizon: int
    lower: float
    upper: float
    bound_available: bool
    remainder: float


def quenched_p2_tail(path: EnvPath, n: int, horizon: int) -> QuenchedTail:
    """Exact enclosure of E_xi|W - W_n|^2 = sum_{k>=n} P_k^{-1} bar m_k(2)."""
    if not 0 <= n < horizon:
        raise ParameterError("need 0 <= n < horizon")
    if horizon >= len(path):
        raise ParameterError(f"horizon {horizon} needs a path longer than {len(path)}")
    lower = float(math.fsum(quenched_increment_second_moments(path, horizon + 1)[n:]))
    bar2_max = max(map(_bar2, path.laws[: horizon + 1]))
    mu_min = float(min(law.mean for law in path.laws[: horizon + 1]))
    if bar2_max == 0.0:
        remainder = 0.0
    elif mu_min <= 1.0:
        remainder = math.inf
    else:
        remainder = bar2_max * math.exp(-path.log_means[horizon + 1]) / (1.0 - 1.0 / mu_min)
    return QuenchedTail(n, horizon, lower, lower + remainder, math.isfinite(remainder), remainder)


def quenched_increment_second_moments(path: EnvPath, n_max: int) -> np.ndarray:
    """E_xi|W_{n+1} - W_n|^2 = P_n^{-1} bar m_n(2) for n = 0..n_max-1."""
    if not 1 <= n_max <= len(path):
        raise ParameterError(f"n_max {n_max} outside 1..{len(path)}")
    return np.array([_bar2(law) for law in path.laws[:n_max]]) * np.exp(-path.log_means[:n_max])


@dataclass(frozen=True)
class GrowthEnvelope:
    """Exact u_n(s, r) against the envelope C * n^gamma * base^n.

    C is the smallest constant that covers the first half of the table; the
    claim under test is that the second half never escapes it, i.e. the
    growth ORDER n^gamma base^n is not exceeded.
    """

    s: float
    r: int
    gamma: float
    base: float
    c: float
    u: np.ndarray
    holds: bool
    max_excess: float  # max over n>=1 of u_n/envelope_n - 1 (<= 0 when holds)


def growth_envelope(env: Environment, s: float, r: int, n_max: int) -> GrowthEnvelope:
    """Check u_n(s,r) <= C n^gamma base^n for 1 <= n <= n_max.

    With integer r the growth exponent is gamma = 1 + (b-1)r - (b-1)b/2 for
    b = r - 1, and base = max(max_{1<=i<=b} E m_0^{i-r-s}, E m_0^{-s}).
    """
    if r != int(r) or not 2 <= r <= MAX_ORDER:
        raise ParameterError(f"r must be an integer in 2..{MAX_ORDER}")
    if n_max < ENVELOPE_HORIZON:
        raise ParameterError(f"n_max must be >= {ENVELOPE_HORIZON} for a meaningful envelope check")
    r = int(r)
    u = annealed_u(env, s, r, n_max)
    b = r - 1
    gamma = 1.0 + (b - 1) * r - (b - 1) * b / 2.0
    base = max(
        max(env.mean_power(float(i - r - s)) for i in range(1, b + 1)),
        env.mean_power(-float(s)),
    )
    ns = np.arange(1, n_max + 1, dtype=float)
    envelope_unit = ns**gamma * base**ns
    n_fit = max(3, n_max // 2)
    c = float((u[1 : n_fit + 1] / envelope_unit[:n_fit]).max())
    ratios = u[1:] / (c * envelope_unit)
    max_excess = float(ratios.max() - 1.0)
    return GrowthEnvelope(
        s=float(s), r=r, gamma=gamma, base=base, c=c, u=u,
        holds=bool(max_excess <= 1e-9), max_excess=max_excess,
    )


def growth_envelope_check(env: Environment, s: float, r: int, n_max: int) -> bool:
    return growth_envelope(env, s, r, n_max).holds


def recursion_inequality_slacks(env: Environment, s: float, r: int, n_max: int) -> np.ndarray:
    """Slack of the one-step bound on u_n(s,r)^{1/(r-1)} for n = 1..n_max.

    The exact values must satisfy, for integer r >= 3,
    u_n^{1/(r-1)} <= (E m_0^{1-r-s})^{1/(r-1)} u_{n-1}(s,r)^{1/(r-1)}
                   + (E m_0^{-s} W_1^r)^{1/(r-1)} u_{n-1}(s,r-1)^{1/(r-1)};
    returned slacks are rhs - lhs and should all be >= 0 up to roundoff.
    """
    if r != int(r) or not 3 <= r <= MAX_ORDER:
        raise ParameterError(f"r must be an integer in 3..{MAX_ORDER}")
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    r = int(r)
    u_r = annealed_u(env, s, r, n_max)
    u_rm1 = annealed_u(env, s, r - 1, n_max)
    c_same = env.mean_power(float(1 - r - s))
    c_down = env.expect(lambda law: law.mean ** (-(s + r)) * law.moment(r))
    e = 1.0 / (r - 1)
    lhs = u_r[1:] ** e
    rhs = c_same**e * u_r[:-1] ** e + c_down**e * u_rm1[:-1] ** e
    return rhs - lhs
