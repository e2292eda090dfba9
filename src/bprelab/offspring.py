"""Finite-support offspring distributions on the non-negative integers.

An offspring law is given by a ``{value: probability}`` map with finite
support. It knows its exact power moments, centered absolute moments and
cumulants; the simulator draws whole generations from its values and probs.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ParameterError

MAX_CUMULANT_ORDER = 12


class OffspringLaw:
    """Probability law of a single offspring count, with finite support.

    Parameters
    ----------
    pmf : mapping of non-negative int to probability. Probabilities must be
        non-negative and sum to 1 within 1e-12; they are renormalized to sum
        to 1 exactly. Zero-probability entries are dropped. The mean must be
        positive (the law may be deterministic, but not all mass at zero).
    """

    def __init__(self, pmf: Mapping[int, float]):
        if not pmf:
            raise ParameterError("offspring law needs at least one atom")
        values = []
        probs = []
        for value, prob in sorted(pmf.items()):
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ParameterError(f"offspring value {value!r} is not a non-negative integer")
            prob = float(prob)
            if prob < 0.0 or not math.isfinite(prob):
                raise ParameterError(f"probability {prob!r} for value {value} is invalid")
            if prob > 0.0:
                values.append(int(value))
                probs.append(prob)
        if not values:
            raise ParameterError("offspring law has no positive-probability atom")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"probabilities sum to {total!r}, not 1")
        self.values = np.asarray(values, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64) / total
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
        return hash((self.values.tobytes(), self.probs.tobytes()))

    def __repr__(self) -> str:
        atoms = ", ".join(f"{v}: {p:g}" for v, p in self.as_mapping().items())
        return f"OffspringLaw({{{atoms}}})"
