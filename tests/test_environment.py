"""Environment models: realized paths, fixed sequences, i.i.d. mixtures."""

import math

import numpy as np
import pytest

from bprelab import (
    EnvPath,
    FixedPath,
    IIDMixture,
    OffspringLaw,
    ParameterError,
    UnsupportedOperationError,
    quenched_bounds,
)

GW = OffspringLaw({0: 0.25, 2: 0.75})
DET2 = OffspringLaw({2: 1.0})
DET3 = OffspringLaw({3: 1.0})

# (a, b) whose laws of mean a/b and b/a give a path of mean product exactly 1, and a
# positive float sum of its log means
CRITICAL_PAIRS = [(5, 2), (5, 4), (6, 5), (7, 5), (8, 5), (9, 5), (10, 4), (10, 8), (10, 9)]


def critical_path_pmfs(a, b):
    """The 12-state path alternating {0: 1 - 1/b, a: 1/b} and {0: 1 - b/a, 1: b/a}."""
    return [{0: 1 - 1 / b, a: 1 / b}, {0: 1 - b / a, 1: b / a}] * 6


class TestEnvPath:
    def test_log_means_are_prefix_sums(self):
        path = EnvPath([GW, DET3, DET2])
        expected = [0.0, math.log(1.5), math.log(4.5), math.log(9.0)]
        assert path.log_means == pytest.approx(expected, rel=1e-14)
        assert math.exp(path.log_means[2]) == pytest.approx(4.5, rel=1e-14)
        assert len(path) == 3
        assert path.laws[1] is DET3

    def test_means_vector(self):
        assert EnvPath([GW, DET3]).means == pytest.approx([1.5, 3.0])

    def test_supercritical_flag(self):
        assert EnvPath([DET2, DET3]).is_supercritical
        sub = OffspringLaw({0: 0.5, 1: 0.5})
        assert not EnvPath([sub, sub]).is_supercritical
        # product of means exactly 1: average log mean 0 is not supercritical
        assert not EnvPath([DET2, sub]).is_supercritical

    def test_empty_path_rejected(self):
        with pytest.raises(ParameterError):
            EnvPath([])

    @pytest.mark.parametrize("a, b", CRITICAL_PAIRS)
    def test_critical_path_is_not_supercritical(self, a, b):
        laws = [OffspringLaw(pmf) for pmf in critical_path_pmfs(a, b)]
        for path in (EnvPath(laws), FixedPath(laws)):
            # the rounding residue of log P_12 is positive; the growth rule still reads critical
            assert path.log_means[-1] > 0.0
            assert path.mean_growth == 1.0
            assert not path.is_supercritical


class TestFixedPath:
    def test_is_its_own_path(self):
        env = FixedPath(iter([GW, DET3, DET2]))
        assert isinstance(env, EnvPath)
        assert env.laws == (GW, DET3, DET2) and len(env) == 3
        assert np.array_equal(env.log_means, EnvPath([GW, DET3, DET2]).log_means)
        assert env.mean_growth == EnvPath(env.laws).mean_growth == pytest.approx(9.0 ** (1 / 3), rel=1e-14)
        assert env.is_supercritical

    def test_prefix_sampling_ignores_rng(self):
        env = FixedPath([GW, DET3, DET2])
        path = env.sample_path(2, np.random.default_rng(0))
        assert path.laws == (GW, DET3)

    def test_length_must_fit_stored_path(self):
        env = FixedPath([GW, DET3])
        with pytest.raises(ParameterError):
            env.sample_path(3)
        with pytest.raises(ParameterError):
            env.sample_path(0)

    def test_no_stationary_functionals(self):
        env = FixedPath([GW])
        with pytest.raises(UnsupportedOperationError):
            env.geo_mean()
        with pytest.raises(UnsupportedOperationError):
            env.mean_power(-1.0)
        with pytest.raises(UnsupportedOperationError):
            env.expect(lambda law: law.mean)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            FixedPath([])

    def test_degenerate_flag(self):
        assert FixedPath([DET2, DET3]).is_degenerate
        assert not FixedPath([DET2, GW]).is_degenerate


class TestIIDMixture:
    def test_weight_validation(self):
        with pytest.raises(ParameterError, match="equal length"):
            IIDMixture([GW], [0.5, 0.5])
        with pytest.raises(ParameterError, match="sum to"):
            IIDMixture([GW, DET2], [0.5, 0.25])
        with pytest.raises(ParameterError, match="non-negative"):
            IIDMixture([GW, DET2], [-0.5, 1.5])
        with pytest.raises(ParameterError):
            IIDMixture([], [])

    def test_zero_weight_states_dropped(self):
        env = IIDMixture([GW, DET2, DET3], [0.5, 0.0, 0.5])
        assert env.states == (GW, DET3)
        assert env.weights == pytest.approx([0.5, 0.5])

    def test_stationary_functionals_frozen(self):
        env = IIDMixture([DET2, DET3], [0.5, 0.5])
        assert env.expected_log_mean() == pytest.approx(0.5 * (math.log(2) + math.log(3)), rel=1e-14)
        assert env.geo_mean() == pytest.approx(math.sqrt(6), rel=1e-14)
        assert env.mean_power(-1.0) == pytest.approx(5 / 12, rel=1e-14)
        assert env.expect(lambda law: law.max_support) == pytest.approx(2.5)
        one = IIDMixture([GW], [1.0])
        assert one.states == (GW,)
        assert one.geo_mean() == pytest.approx(1.5, rel=1e-15)
        assert one.mean_power(2.0) == pytest.approx(2.25, rel=1e-15)

    def test_supercritical_and_degenerate_flags(self):
        assert IIDMixture([DET2, DET3], [0.5, 0.5]).is_supercritical
        assert IIDMixture([DET2, DET3], [0.5, 0.5]).is_degenerate
        assert not IIDMixture([GW], [1.0]).is_degenerate
        sub = IIDMixture(
            [OffspringLaw({0: 0.5, 1: 0.5}), OffspringLaw({1: 0.5, 2: 0.5})], [0.5, 0.5]
        )
        assert not sub.is_supercritical

    def test_critical_mixture_is_not_supercritical(self):
        # E log m_0 = (log 1/8 + log 4 + log 2) / 3 = 0, but the float sum is 8e-17
        laws = [OffspringLaw({0: 0.875, 1: 0.125}), OffspringLaw({1: 0.25, 5: 0.75}),
                OffspringLaw({0: 0.5, 4: 0.5})]
        env = IIDMixture(laws, [1 / 3] * 3)
        assert env.expected_log_mean() > 0.0
        assert not env.is_supercritical
        with pytest.raises(ParameterError, match=r"^environment is not supercritical "
                           r"\(geometric mean offspring mean not above 1\); rates undefined$"):
            quenched_bounds(env, 2.0)

    def test_sampling_needs_rng(self):
        env = IIDMixture([DET2, DET3], [0.5, 0.5])
        with pytest.raises(ParameterError, match="rng"):
            env.sample_path(5)
        with pytest.raises(ParameterError):
            env.sample_path(0, np.random.default_rng(0))

    def test_sampled_path_statistics(self):
        env = IIDMixture([DET2, DET3], [0.5, 0.5])
        path = env.sample_path(2000, np.random.default_rng(42))
        frac2 = np.mean([law is DET2 for law in path.laws])
        assert abs(frac2 - 0.5) < 4 * math.sqrt(0.25 / 2000)

    def test_sampling_deterministic_given_rng_state(self):
        env = IIDMixture([DET2, DET3], [0.5, 0.5])
        a = env.sample_path(50, np.random.default_rng(9))
        b = env.sample_path(50, np.random.default_rng(9))
        assert a.laws == b.laws
