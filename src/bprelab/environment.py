"""Environment models: fixed offspring-law sequences and i.i.d. mixtures.

A realized environment is an :class:`EnvPath`, a finite sequence of offspring
laws together with the cumulative log mean-products log P_n. Stationary
quantities (geometric mean, mean-power functionals) only exist for the
i.i.d. mixture model; asking a fixed path for them raises
:class:`~bprelab.errors.UnsupportedOperationError`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError, UnsupportedOperationError
from .offspring import OffspringLaw


class EnvPath:
    """A realized sequence of offspring laws (environment states).

    ``log_means[n]`` is log P_n = sum_{i<n} log m_i, with log_means[0] = 0,
    so W_n = Z_n / exp(log_means[n]).
    """

    def __init__(self, laws: Sequence[OffspringLaw], seed: int | None = None):
        if not laws:
            raise ParameterError("environment path must have at least one state")
        self.laws = tuple(laws)
        self.seed = seed
        self.log_means = np.concatenate(
            ([0.0], np.cumsum([law.log_mean for law in self.laws]))
        )

    def __len__(self) -> int:
        return len(self.laws)

    @property
    def means(self) -> np.ndarray:
        return np.array([law.mean for law in self.laws])

    @property
    def is_supercritical(self) -> bool:
        """Whether the average log mean over the stored path is positive."""
        return float(self.log_means[-1]) / len(self) > 0.0


class Environment:
    """Common surface of both environment models: sample_path, is_supercritical, is_degenerate."""

    # Stationary functionals exist only for the i.i.d. mixture model.

    def geo_mean(self) -> float:
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no stationary law; geometric mean undefined"
        )

    def mean_power(self, s: float) -> float:
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no stationary law; mean-power functional undefined"
        )

    def expect(self, f: Callable[[OffspringLaw], float]) -> float:
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no stationary law; state functional undefined"
        )


class FixedPath(Environment):
    """A deterministic, finite sequence of environment states."""

    def __init__(self, laws: Iterable[OffspringLaw]):
        self.laws = tuple(laws)
        if not self.laws:
            raise ParameterError("fixed path needs at least one state")

    def sample_path(self, length: int, rng: np.random.Generator | None = None) -> EnvPath:
        """The stored prefix of the given length; rng is ignored."""
        if not 1 <= length <= len(self.laws):
            raise ParameterError(
                f"requested path length {length} outside 1..{len(self.laws)}"
            )
        return EnvPath(self.laws[:length])

    @property
    def is_supercritical(self) -> bool:
        return EnvPath(self.laws).is_supercritical

    @property
    def is_degenerate(self) -> bool:
        """True when every stored state is deterministic at its mean (W_n = 1 a.s.)."""
        return all(law.is_deterministic for law in self.laws)

    def __repr__(self) -> str:
        return f"FixedPath(<{len(self.laws)} states>)"


class IIDMixture(Environment):
    """Environment states drawn i.i.d. from a finite mixture of laws."""

    def __init__(self, states: Sequence[OffspringLaw], weights: Sequence[float]):
        if not states:
            raise ParameterError("mixture needs at least one state")
        if len(states) != len(weights):
            raise ParameterError("states and weights must have equal length")
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ParameterError("mixture weights must be finite and non-negative")
        total = float(math.fsum(w))
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"mixture weights sum to {total!r}, not 1")
        keep = w > 0
        self.states = tuple(s for s, k in zip(states, keep) if k)
        self.weights = w[keep] / total

    def sample_path(self, length: int, rng: np.random.Generator | None = None) -> EnvPath:
        if length < 1:
            raise ParameterError("path length must be >= 1")
        if rng is None:
            raise ParameterError("sampling from a mixture requires an rng")
        idx = rng.choice(len(self.states), size=length, p=self.weights)
        return EnvPath([self.states[i] for i in idx])

    def expected_log_mean(self) -> float:
        """E[log m_0] under the mixture."""
        return float(self.weights @ [s.log_mean for s in self.states])

    def geo_mean(self) -> float:
        """exp(E[log m_0]), the geometric mean offspring mean."""
        return math.exp(self.expected_log_mean())

    def mean_power(self, s: float) -> float:
        """E[m_0^s] under the mixture."""
        return float(self.weights @ [st.mean**s for st in self.states])

    def expect(self, f: Callable[[OffspringLaw], float]) -> float:
        """E[f(state)] for a per-state functional f."""
        return float(self.weights @ [f(st) for st in self.states])

    @property
    def is_supercritical(self) -> bool:
        """geo_mean() > 1, the test the rates apply; an E[log m_0] of rounding size is critical."""
        return self.geo_mean() > 1.0

    @property
    def is_degenerate(self) -> bool:
        """True when every state is deterministic at its mean (W_1 = 1 a.s.)."""
        return all(s.is_deterministic for s in self.states)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{s!r}: {w:g}" for s, w in zip(self.states, self.weights))
        return f"IIDMixture({pairs})"
