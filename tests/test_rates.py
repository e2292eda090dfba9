"""Critical rates, boundedness criteria, and the series diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bprelab import (
    EnvPath,
    FixedPath,
    IIDMixture,
    OffspringLaw,
    ParameterError,
    UnsupportedOperationError,
)
from bprelab.harness import jsonable
from bprelab.rates import (
    annealed_critical_conditions,
    annealed_lp_criterion,
    annealed_rates,
    default_rho_grid,
    quenched_bounds,
    rate_report,
    series_diagnostic,
)

GW = IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0])
M23 = IIDMixture([OffspringLaw({2: 1.0}), OffspringLaw({3: 1.0})], [0.5, 0.5])
HALF_FOUR = IIDMixture([OffspringLaw({0: 0.5, 1: 0.5}), OffspringLaw({4: 1.0})], [0.5, 0.5])


def supercritical_mixtures():
    """Random i.i.d. mixtures with positive expected log mean."""

    @st.composite
    def build(draw):
        n_states = draw(st.integers(1, 3))
        laws = []
        for _ in range(n_states):
            lo = draw(st.integers(0, 2))
            hi = draw(st.integers(lo + 1, 6))
            w = draw(st.integers(1, 7))
            total = 8
            laws.append(OffspringLaw({lo: w / total, hi: (total - w) / total}))
        weights = [1.0 / n_states] * n_states
        env = IIDMixture(laws, weights)
        assume(env.is_supercritical)
        return env

    return build()


class TestQuenchedBounds:
    def test_frozen_single_state(self):
        # m = 2, p = 1.5: sufficient 2^(1/3), critical sqrt 2
        suff, crit = quenched_bounds(IIDMixture([OffspringLaw({2: 1.0})], [1.0]), 1.5)
        assert suff == pytest.approx(2 ** (1 / 3), rel=1e-14)
        assert crit == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_frozen_two_state(self):
        suff, crit = quenched_bounds(M23, 1.5)
        assert suff == pytest.approx(1.3480061545972777, rel=1e-12)
        assert crit == pytest.approx(1.5650845800732873, rel=1e-12)

    def test_large_p_saturates_at_critical(self):
        suff, crit = quenched_bounds(M23, 50.0)
        assert suff == crit

    def test_rejects_bad_p_and_environments(self):
        with pytest.raises(ParameterError):
            quenched_bounds(GW, 1.0)
        with pytest.raises(ParameterError, match="supercritical"):
            quenched_bounds(IIDMixture([OffspringLaw({0: 0.5, 1: 0.5})], [1.0]), 2.0)
        # a fixed path has no stationary law, whether or not its own growth rule holds
        for law in (OffspringLaw({2: 1.0}), OffspringLaw({1: 1.0})):
            for rates_of in (quenched_bounds, annealed_rates):
                with pytest.raises(UnsupportedOperationError, match="FixedPath has no stationary law"):
                    rates_of(FixedPath([law]), 2.0)


class TestAnnealedRates:
    def test_gw_p2_collapses_to_sqrt_q1(self):
        rho0, rhoc = annealed_rates(GW, 2.0)
        assert rho0 == pytest.approx(math.sqrt(1.5), rel=1e-14)
        assert rhoc == pytest.approx(math.sqrt(1.5), rel=1e-14)

    def test_frozen_p_below_two(self):
        rho0, rhoc = annealed_rates(M23, 1.5)
        assert rho0 == pytest.approx(1.3434049344224446, rel=1e-12)
        assert rhoc == pytest.approx(1.553115692889418, rel=1e-12)

    def test_p_at_least_two_returns_min_of_both(self):
        rho0, rhoc = annealed_rates(M23, 3.0)
        assert rho0 == rhoc
        direct = min(M23.mean_power(-2.0) ** (-1 / 3), M23.mean_power(-1.5) ** (-1 / 3))
        assert rho0 == pytest.approx(direct, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(supercritical_mixtures(), st.floats(1.05, 4.0))
    def test_proved_orderings(self, env, p):
        suff, crit = quenched_bounds(env, p)
        rho0, rhoc = annealed_rates(env, p)
        assert suff <= crit * (1 + 1e-12)
        # Jensen: annealed critical never beats the quenched one
        assert rhoc <= crit * (1 + 1e-12)
        if p >= 2.0:
            assert rho0 == rhoc
        elif annealed_critical_conditions(env, p).tilt_positive:
            assert rho0 <= rhoc * (1 + 1e-12)


class TestCriteria:
    def test_boundedness_criterion_frozen(self):
        crit = annealed_lp_criterion(GW, 2.0)
        assert crit.holds
        assert crit.mean_power_value == pytest.approx(2 / 3, rel=1e-14)
        # E (Z_1/m)^2 = E Z_1^2 / m^2 = 3 / 2.25
        assert crit.z1_norm_value == pytest.approx(4 / 3, rel=1e-14)
        assert crit.z1_norm_finite

    def test_boundedness_criterion_failure_case(self):
        # means 1/2 and 4: E[1/m_0] = (2 + 1/4)/2 = 1.125 >= 1, so second
        # moments are unbounded even though the mixture is supercritical
        crit = annealed_lp_criterion(HALF_FOUR, 2.0)
        assert crit.mean_power_value == pytest.approx(1.125, rel=1e-14)
        assert not crit.holds

    def test_critical_conditions_frozen(self):
        two_state = IIDMixture(
            [OffspringLaw({1: 0.5, 3: 0.5}), OffspringLaw({2: 1.0})], [0.5, 0.5]
        )
        cond = annealed_critical_conditions(two_state, 1.5)
        assert cond.tilt_positive
        assert cond.tilt_value == pytest.approx(2**-0.75 * math.log(2), rel=1e-12)
        assert cond.zlogz_value == pytest.approx(0.4510384304002793, rel=1e-12)
        assert cond.zlogz_finite
        assert not cond.w1_degenerate
        assert cond.all_hold
        assert jsonable(cond)["all_hold"] is True

    def test_negative_tilt_detected(self):
        cond = annealed_critical_conditions(HALF_FOUR, 1.5)
        assert cond.tilt_value == pytest.approx(-0.33780044350894034, rel=1e-12)
        assert not cond.tilt_positive
        assert not cond.all_hold

    def test_degenerate_w1_detected(self):
        cond = annealed_critical_conditions(M23, 1.5)
        assert cond.w1_degenerate
        assert not cond.all_hold

    def test_conditions_require_p_in_open_interval(self):
        for p in (1.0, 2.0, 2.5):
            with pytest.raises(ParameterError):
                annealed_critical_conditions(GW, p)


class TestRateReport:
    def test_fields_and_flags(self):
        rep = rate_report(GW, 2.0)
        assert rep.m_geo == pytest.approx(1.5, rel=1e-14)
        assert rep.quenched_critical == pytest.approx(math.sqrt(1.5), rel=1e-14)
        assert rep.annealed_rhoc == pytest.approx(math.sqrt(1.5), rel=1e-14)
        assert rep.condition_flags["supercritical"]
        assert rep.condition_flags["lp_bounded"]
        assert rep.condition_flags["w1_nondegenerate"]
        assert "tilt_positive" not in rep.condition_flags
        d = jsonable(rep)
        assert d["p"] == 2.0 and d["condition_flags"]["lp_bounded"]

    def test_small_p_adds_critical_condition_flags(self):
        rep = rate_report(GW, 1.5)
        assert "tilt_positive" in rep.condition_flags
        assert "zlogz_finite" in rep.condition_flags


class TestRhoGrid:
    def test_shape_and_endpoints(self):
        grid = default_rho_grid(math.sqrt(1.5))
        assert len(grid) == 20
        assert grid[0] == pytest.approx(1.01)
        assert grid[-1] == pytest.approx(1.2 * math.sqrt(1.5), rel=1e-12)
        assert np.all(np.diff(grid) > 0)

    def test_barely_supercritical_still_brackets(self):
        grid = default_rho_grid(0.5)
        assert grid[-1] == pytest.approx(1.02)

    def test_rejects_nonpositive_critical(self):
        with pytest.raises(ParameterError):
            default_rho_grid(0.0)


class TestSeriesDiagnostic:
    # constant law {1: .5, 3: .5}: mean 2, normalized variance 1/4
    LAW = OffspringLaw({1: 0.5, 3: 0.5})

    def path(self, length=16):
        return EnvPath([self.LAW] * length)

    def expected_quadratic(self, rho, length=16):
        n = np.arange(length)
        return rho ** (2 * n) * 2.0 ** (-n) * 0.25

    def test_quadratic_terms_match_hand_formula(self):
        diag = series_diagnostic(self.path(), 2.0, 1.5, "quadratic")
        assert diag.terms == pytest.approx(self.expected_quadratic(1.5), rel=1e-12)
        assert diag.partial_sums[-1] == pytest.approx(self.expected_quadratic(1.5).sum(), rel=1e-12)

    def test_root_statistic_and_verdicts(self):
        # the constant 1/4 in the terms pulls the finite-n root below the
        # asymptote rho^2/2, so the verdict checks need some path length
        for rho, verdict in ((1.0, "converging"), (1.5, "diverging")):
            diag = series_diagnostic(self.path(64), 2.0, rho, "quadratic")
            terms = self.expected_quadratic(rho, 64)
            window = np.arange(32, 64)
            expected_stat = np.mean(terms[window] ** (1.0 / window))
            assert diag.root_stat == pytest.approx(expected_stat, rel=1e-12)
            assert diag.verdict == verdict

    def test_increment_terms_match_hand_formula(self):
        # p = 1.5, r = 2: terms rho^{pn} P_n^{-3/4} (1/4)^{3/4}
        rho = 1.1
        diag = series_diagnostic(self.path(), 1.5, rho, "increment", r=2.0)
        n = np.arange(16)
        expected = rho ** (1.5 * n) * 2.0 ** (-0.75 * n) * 0.25**0.75
        assert diag.terms == pytest.approx(expected, rel=1e-12)
        assert diag.r == 2.0

    def test_zero_variance_states_do_not_dilute_the_root(self):
        # alternate a deterministic state in: its terms are 0 and must not
        # drag the statistic toward a false "converging"
        laws = [self.LAW, OffspringLaw({2: 1.0})] * 8
        diag = series_diagnostic(EnvPath(laws), 2.0, 1.6, "quadratic")
        assert diag.verdict == "diverging"

    def test_all_zero_series_reports_zero_root(self):
        laws = [OffspringLaw({2: 1.0})] * 12
        diag = series_diagnostic(EnvPath(laws), 2.0, 1.9, "quadratic")
        assert diag.root_stat == 0.0
        assert diag.verdict == "converging"
        assert diag.partial_sums[-1] == 0.0

    def test_inconclusive_band(self):
        # mean 1 and normalized variance 1: every term is exactly 1 at
        # rho = 1, so the root statistic sits exactly on the boundary
        laws = [OffspringLaw({0: 0.5, 2: 0.5})] * 16
        diag = series_diagnostic(EnvPath(laws), 2.0, 1.0, "quadratic")
        assert diag.root_stat == pytest.approx(1.0, rel=1e-12)
        assert diag.verdict == "inconclusive"

    def test_parameter_validation(self):
        with pytest.raises(ParameterError, match="length >= 8"):
            series_diagnostic(self.path(4), 2.0, 1.1, "quadratic")
        with pytest.raises(ParameterError, match="rho"):
            series_diagnostic(self.path(), 2.0, 0.9, "quadratic")
        with pytest.raises(ParameterError, match="variant"):
            series_diagnostic(self.path(), 2.0, 1.1, "arithmetic")
        with pytest.raises(ParameterError):
            series_diagnostic(self.path(), 2.5, 1.1, "increment", r=2.0)
        with pytest.raises(ParameterError):
            series_diagnostic(self.path(), 1.5, 1.1, "increment", r=3.0)
        with pytest.raises(ParameterError):
            series_diagnostic(self.path(), 1.5, 1.1, "quadratic")
