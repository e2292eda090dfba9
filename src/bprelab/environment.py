"""Environment models: fixed offspring-law sequences and i.i.d. mixtures.

A realized environment is an :class:`EnvPath`, a finite sequence of offspring
laws together with the cumulative log mean-products log P_n, whose one growth
rule, ``EnvPath.is_supercritical``, is the mixture's: geometric mean growth
above 1. A fixed path is an environment that is its own path, so
:class:`FixedPath` is an EnvPath. Stationary quantities (geometric mean,
mean-power functionals) only exist for the i.i.d. mixture model; asking a
fixed path for them raises :class:`~bprelab.errors.UnsupportedOperationError`.
A mixture draws its states by one rule, ``IIDMixture.draw_states``, for its
sampled paths and for the simulator's annealed blocks alike.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError, UnsupportedOperationError
from .offspring import OffspringLaw, normalized_probs


class EnvPath:
    """A realized sequence of offspring laws (environment states).

    ``log_means[n]`` is log P_n = sum_{i<n} log m_i, with log_means[0] = 0,
    so W_n = Z_n / exp(log_means[n]).
    """

    def __init__(self, laws: Iterable[OffspringLaw], seed: int | None = None):
        self.laws = tuple(laws)
        if not self.laws:
            raise ParameterError("environment path must have at least one state")
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
    def mean_growth(self) -> float:
        """exp of the average log mean, the path's geometric mean offspring mean."""
        return float(np.exp(np.mean([law.log_mean for law in self.laws])))

    @property
    def is_supercritical(self) -> bool:
        """mean_growth > 1, the mixture's test; an average log mean of rounding size is critical."""
        return self.mean_growth > 1.0


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


class FixedPath(EnvPath, Environment):
    """A deterministic, finite sequence of environment states: an environment that is its own path."""

    def sample_path(self, length: int, rng: np.random.Generator | None = None) -> EnvPath:
        """The stored prefix of the given length; rng is ignored."""
        if not 1 <= length <= len(self.laws):
            raise ParameterError(
                f"requested path length {length} outside 1..{len(self.laws)}"
            )
        return EnvPath(self.laws[:length])

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
        keep, self.weights = normalized_probs(weights, "mixture weights")
        self.states = tuple(s for s, k in zip(states, keep) if k)
        # the cdf Generator.choice searches for a draw with p=weights
        self._cdf = np.cumsum(self.weights)
        self._cdf /= self._cdf[-1]

    def draw_states(self, rng: np.random.Generator, rows: int, length: int) -> np.ndarray:
        """Generation-major state indices: states[n, i] is row i's state at generation n.

        The rows x length uniforms that ``rng.choice(len(self.states),
        size=(rows, length), p=self.weights)`` draws, each mapped to the
        number of its cdf's cuts (all entries but the last) at or below it:
        choice's ``searchsorted(cdf, u, side="right")``, since every u < 1 =
        cdf[-1]. So the indices and the stream are choice's, transposed, in
        one byte per state while there are at most 256 states.
        """
        u = rng.random((rows, length)).T
        states = np.zeros((length, rows), dtype=np.min_scalar_type(len(self.states) - 1))
        above = np.empty((length, rows), dtype=bool)
        for cut in self._cdf[:-1]:
            states += np.greater_equal(u, cut, out=above)
        return states

    def sample_path(self, length: int, rng: np.random.Generator | None = None) -> EnvPath:
        if length < 1:
            raise ParameterError("path length must be >= 1")
        if rng is None:
            raise ParameterError("sampling from a mixture requires an rng")
        return EnvPath([self.states[i] for i in self.draw_states(rng, 1, length)[:, 0]])

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
