"""Finite-support offspring distributions on the non-negative integers.

An offspring law is given by a ``{value: probability}`` map with finite
support. It knows its exact power moments, centered absolute moments and
cumulants; the simulator draws whole generations from its values and probs.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping

import numpy as np

from .errors import ParameterError

MAX_CUMULANT_ORDER = 12


def normalized_probs(probs, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The rule for a probability vector: which entries are kept, and the kept entries renormalized.

    Every entry must be a finite, non-negative real number (not a bool or a
    string), and their total within 1e-12 of 1; else ParameterError names
    `what`. Zero entries are dropped and the rest divided by the exact total,
    so they sum to 1.
    """
    for prob in probs:
        if isinstance(prob, bool) or not isinstance(prob, numbers.Real) or not (math.isfinite(prob) and prob >= 0):
            raise ParameterError(f"{what} must be finite, non-negative real numbers; got {prob!r}")
    probs = np.array(probs, dtype=np.float64)
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise ParameterError(f"{what} sum to {total!r}, not 1")
    keep = probs > 0.0
    return keep, probs[keep] / total


class OffspringLaw:
    """Probability law of a single offspring count, with finite support.

    Parameters
    ----------
    pmf : mapping of non-negative int (not bool) to probability. The
        probabilities follow normalized_probs: finite non-negative reals
        whose total is within 1e-12 of 1, with zeros dropped and the rest
        renormalized to sum to 1 exactly. The mean must be positive (the law
        may be deterministic, but not all mass at zero).
    """

    def __init__(self, pmf: Mapping[int, float]):
        if not pmf:
            raise ParameterError("offspring law needs at least one atom")
        values = sorted(pmf)
        for value in values:
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
                raise ParameterError(f"offspring value {value!r} is not a non-negative integer")
        keep, self.probs = normalized_probs([pmf[value] for value in values], "probabilities")
        self.values = np.asarray(values, dtype=np.int64)[keep]
        # a law keys the exact tables' caches: its arrays are frozen and hashed once
        self.values.flags.writeable = self.probs.flags.writeable = False
        self._hash = hash((self.values.tobytes(), self.probs.tobytes()))
        self._mean = float(self.values @ self.probs)
        if self._mean <= 0.0:
            raise ParameterError("offspring mean must be positive")

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def log_mean(self) -> float:
        return math.log(self._mean)

    @property
    def max_support(self) -> int:
        return int(self.values[-1])

    @property
    def is_deterministic(self) -> bool:
        return len(self.values) == 1

    def moment(self, p: float) -> float:
        """E[X^p] for real p >= 0, with 0^0 = 1 and 0^p = 0 for p > 0."""
        if p < 0:
            raise ParameterError("moment order must be >= 0")
        if p == 0:
            return 1.0
        powers = np.where(self.values > 0, np.power(self.values, float(p), dtype=np.float64), 0.0)
        return float(powers @ self.probs)

    def centered_abs_moment(self, p: float) -> float:
        """E|X/mean - 1|^p, the normalized centered absolute moment."""
        if p <= 0:
            raise ParameterError("centered moment order must be positive")
        dev = np.abs(self.values / self._mean - 1.0)
        return float(np.power(dev, float(p)) @ self.probs)

    def cumulants(self, k_max: int) -> np.ndarray:
        """Cumulants kappa_1..kappa_k_max, k_max <= 12.

        Uses the standard recursion
        kappa_n = mu'_n - sum_{j<n} C(n-1, j-1) kappa_j mu'_{n-j}.
        """
        if not 1 <= k_max <= MAX_CUMULANT_ORDER:
            raise ParameterError(f"cumulant order must be in 1..{MAX_CUMULANT_ORDER}")
        mu = [self.moment(k) for k in range(1, k_max + 1)]
        kappa = np.zeros(k_max)
        for n in range(1, k_max + 1):
            acc = mu[n - 1]
            for j in range(1, n):
                acc -= math.comb(n - 1, j - 1) * kappa[j - 1] * mu[n - j - 1]
            kappa[n - 1] = acc
        return kappa

    def as_mapping(self) -> dict[int, float]:
        return {int(v): float(p) for v, p in zip(self.values, self.probs)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, OffspringLaw):
            return NotImplemented
        return (
            self.values.shape == other.values.shape
            and bool(np.all(self.values == other.values))
            and bool(np.all(self.probs == other.probs))
        )

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        atoms = ", ".join(f"{v}: {p:g}" for v, p in self.as_mapping().items())
        return f"OffspringLaw({{{atoms}}})"
