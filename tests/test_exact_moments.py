"""Exact moment engines against brute-force enumeration and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bprelab import (
    EnvPath,
    FixedPath,
    IIDMixture,
    OffspringLaw,
    ParameterError,
    TableOverflowError,
    UnsupportedOperationError,
)
from bprelab.exact_moments import (
    a_hat_second_moment_partial,
    annealed_moment_table,
    annealed_u,
    conditional_moment_coeffs,
    growth_envelope,
    growth_envelope_check,
    p2_closed_forms,
    quenched_increment_second_moments,
    quenched_moments,
    quenched_p2_tail,
    recursion_inequality_slacks,
)

GW_PMF = {0: 0.25, 2: 0.75}
GW = OffspringLaw(GW_PMF)
DET3_PMF = {3: 1.0}
SYM_PMF = {1: 0.5, 3: 0.5}
TWO_STATE = IIDMixture([OffspringLaw(SYM_PMF), OffspringLaw({2: 1.0})], [0.5, 0.5])


class TestConditionalCoeffs:
    def test_frozen_binary_law(self):
        # brute-force Vandermonde solve gave these exact rows
        c = conditional_moment_coeffs(GW, 4)
        assert c[1, 1:2] == pytest.approx([1.5])
        assert c[2, 1:3] == pytest.approx([0.75, 2.25])
        assert c[3, 1:4] == pytest.approx([-0.75, 3.375, 3.375])
        assert c[4, 1:5] == pytest.approx([-0.375, -2.8125, 10.125, 5.0625])

    def test_deterministic_law_is_a_pure_power(self):
        c = conditional_moment_coeffs(OffspringLaw({2: 1.0}), 3)
        assert c[3, 1:4] == pytest.approx([0.0, 0.0, 8.0], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([GW_PMF, SYM_PMF, {0: 0.5, 1: 0.25, 3: 0.25}, {0: 0.125, 3: 0.875}]),
        st.integers(1, 5),
    )
    def test_matches_bruteforce_solve(self, pmf, k_max):
        engine = conditional_moment_coeffs(OffspringLaw(pmf), k_max)
        expected = oracles.conditional_coeffs(pmf, k_max)
        for k in range(1, k_max + 1):
            assert engine[k, 1 : k + 1] == pytest.approx(
                [float(x) for x in expected[k]], rel=1e-11, abs=1e-11
            )

    def test_polynomial_reproduces_sum_moments(self):
        # sum the polynomial at z = 5 and compare with direct convolution
        c = conditional_moment_coeffs(GW, 4)
        for k in range(1, 5):
            direct = float(oracles.conditional_sum_moment(GW_PMF, 5, k))
            poly = sum(c[k, j] * 5.0**j for j in range(1, k + 1))
            assert poly == pytest.approx(direct, rel=1e-12)

    def test_memoized_and_read_only(self):
        c = conditional_moment_coeffs(GW, 4)
        assert conditional_moment_coeffs(GW, 4) is c
        assert conditional_moment_coeffs(OffspringLaw(GW_PMF), 4) is c
        with pytest.raises(ValueError):
            c[1, 1] = 0.0

    def test_order_bounds(self):
        with pytest.raises(ParameterError):
            conditional_moment_coeffs(GW, 0)
        with pytest.raises(ParameterError):
            conditional_moment_coeffs(GW, 7)


class TestQuenchedMoments:
    def test_frozen_mixed_path(self):
        path = EnvPath([GW, OffspringLaw(DET3_PMF), GW])
        table = quenched_moments(path, 4, 3)
        assert table.values[3] == pytest.approx(
            [1.0, 6.75, 64.125, 634.5, 6483.375], rel=1e-12
        )
        assert table.mode == "quenched" and table.s == 0.0 and len(table.values) == 4

    def test_matches_enumeration_on_small_paths(self):
        paths = [
            [GW_PMF, GW_PMF, GW_PMF],
            [SYM_PMF, DET3_PMF, GW_PMF],
            [{0: 0.5, 1: 0.25, 3: 0.25}, SYM_PMF, DET3_PMF],
        ]
        for pmfs in paths:
            table = quenched_moments(EnvPath([OffspringLaw(q) for q in pmfs]), 4, 3)
            expected = oracles.path_z_moments(pmfs, 4, 3)
            for n in range(4):
                for r in range(5):
                    assert table.values[n, r] == pytest.approx(
                        float(expected[n][r]), rel=1e-11, abs=1e-11
                    ), (pmfs, n, r)

    def test_w_mean_is_exactly_one(self):
        path = EnvPath([GW, OffspringLaw(SYM_PMF)] * 6)
        table = quenched_moments(path, 2, 12)
        assert table.w_moments(1) == pytest.approx(np.ones(13), rel=1e-12)

    def test_w_moments_guarded(self):
        ann = annealed_moment_table(TWO_STATE, 0.0, 2, 4)
        with pytest.raises(ParameterError, match="quenched"):
            ann.w_moments(2)
        q = quenched_moments(EnvPath([GW, GW]), 2, 2)
        with pytest.raises(ParameterError, match="order"):
            q.w_moments(3)

    def test_bounds_validation(self):
        path = EnvPath([GW, GW])
        with pytest.raises(ParameterError):
            quenched_moments(path, 0, 2)
        with pytest.raises(ParameterError):
            quenched_moments(path, 2, 3)

    def test_overflow_names_generation_and_order(self):
        path = EnvPath([OffspringLaw(DET3_PMF)] * 110)
        with pytest.raises(TableOverflowError) as exc:
            quenched_moments(path, 6, 110)
        # 3^(6n) crosses 1e300 at n = 105
        assert exc.value.n == 105
        assert exc.value.order == 6
        assert "n=105" in str(exc.value)


class TestAnnealedTables:
    def test_needs_a_mixture(self):
        with pytest.raises(UnsupportedOperationError):
            annealed_moment_table(FixedPath([GW]), 0.0, 2, 4)

    def test_single_state_equals_quenched(self):
        env = IIDMixture([GW], [1.0])
        table = annealed_moment_table(env, 0.0, 4, 6)
        quenched = quenched_moments(EnvPath([GW] * 6), 4, 6)
        assert table.values == pytest.approx(quenched.values, rel=1e-12)

    def test_weighted_table_matches_enumeration(self):
        pmfs = [SYM_PMF, {2: 1.0}]
        weights = [0.5, 0.5]
        for s in (0, 1, 2):
            table = annealed_moment_table(TWO_STATE, float(s), 4, 3)
            for n in range(4):
                for r in range(1, 5):
                    # oracle computes E[P^{-sigma} W^r]; the raw table holds
                    # E[P^{-s} Z^r] = E[P^{-(s - r)} W^r]
                    expected = oracles.annealed_weighted_w_moment(pmfs, weights, s - r, r, n)
                    assert table.values[n, r] == pytest.approx(
                        float(expected), rel=1e-11, abs=1e-20
                    ), (s, n, r)

    def test_u_frozen_value(self):
        # enumeration gave u_3(1, 3) = 869/4096 on the two-state mixture
        u = annealed_u(TWO_STATE, 1.0, 3, 3)
        assert u[3] == pytest.approx(869 / 4096, rel=1e-13)

    def test_u_matches_enumeration(self):
        pmfs = [SYM_PMF, {2: 1.0}]
        for s in (0, 1, 2):
            for r in (1, 2, 3, 4):
                u = annealed_u(TWO_STATE, float(s), r, 3)
                for n in range(4):
                    expected = oracles.annealed_weighted_w_moment(pmfs, [0.5, 0.5], s, r, n)
                    assert u[n] == pytest.approx(float(expected), rel=1e-11), (s, r, n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000))
    def test_martingale_mean_is_one(self, seed):
        rng = np.random.default_rng(seed)
        laws = [
            OffspringLaw({1: 0.5, 2: 0.25, 4: 0.25}),
            OffspringLaw(GW_PMF),
            OffspringLaw(DET3_PMF),
        ]
        k = int(rng.integers(1, 4))
        raw = rng.integers(1, 8, size=k).astype(float)
        env = IIDMixture(laws[:k], list(raw / raw.sum()))
        u = annealed_u(env, 0.0, 1, 8)
        assert u == pytest.approx(np.ones(9), rel=1e-11)

    def test_annealed_overflow(self):
        env = IIDMixture([OffspringLaw(DET3_PMF)], [1.0])
        with pytest.raises(TableOverflowError) as exc:
            annealed_moment_table(env, 0.0, 6, 120)
        assert exc.value.n == 105 and exc.value.order == 6


class TestP2ClosedForms:
    def test_two_state_frozen(self):
        forms = p2_closed_forms(TWO_STATE)
        assert forms.q1 == pytest.approx(0.5, rel=1e-14)
        assert forms.b2 == pytest.approx(0.125, rel=1e-14)
        assert forms.summable
        assert forms.sup_w2() == pytest.approx(1.25, rel=1e-14)
        for n in range(12):
            assert forms.tail(n) == pytest.approx(0.25 * 0.5**n, rel=1e-13)
            assert forms.increment_second_moment(n) == pytest.approx(
                0.125 * 0.5**n, rel=1e-13
            )
        for rho in (1.0, 1.1, 1.3):
            assert forms.sup_a_hat2(rho) == pytest.approx(
                0.125 / (1 - rho**2 / 2), rel=1e-13
            )
        assert forms.sup_a_hat2(math.sqrt(2.0)) == math.inf

    def test_consistent_with_transfer_matrix(self):
        # 1 + sum of increment second moments must equal the exact E[W_n^2]
        forms = p2_closed_forms(TWO_STATE)
        u2 = annealed_u(TWO_STATE, 0.0, 2, 8)
        for n in range(9):
            partial = 1.0 + math.fsum(forms.increment_second_moment(k) for k in range(n))
            assert u2[n] == pytest.approx(partial, rel=1e-12)

    def test_degenerate_environment(self):
        forms = p2_closed_forms(IIDMixture([OffspringLaw({2: 1.0})], [1.0]))
        assert forms.b2 == 0.0
        assert forms.sup_w2() == 1.0
        assert forms.tail(3) == 0.0
        assert forms.sup_a_hat2(1.5) == 0.0

    def test_unbounded_case(self):
        env = IIDMixture(
            [OffspringLaw({0: 0.5, 1: 0.5}), OffspringLaw({4: 1.0})], [0.5, 0.5]
        )
        forms = p2_closed_forms(env)
        assert forms.q1 == pytest.approx(1.125, rel=1e-14)
        assert not forms.summable
        assert forms.sup_w2() == math.inf
        assert forms.tail(1) == math.inf

    def test_needs_a_mixture(self):
        with pytest.raises(UnsupportedOperationError):
            p2_closed_forms(FixedPath([GW]))

    def test_partial_a_hat_sum_matches_geometric(self):
        forms = p2_closed_forms(TWO_STATE)
        for rho in (1.0, 1.2):
            x = rho**2 * forms.q1
            expected = forms.b2 * (1 - x**10) / (1 - x)
            assert a_hat_second_moment_partial(TWO_STATE, rho, 10) == pytest.approx(
                expected, rel=1e-11
            )
        with pytest.raises(ParameterError):
            a_hat_second_moment_partial(TWO_STATE, 1.1, 0)

    def test_a_hat_tail_is_the_supremum_less_the_partial_sum(self):
        forms = p2_closed_forms(TWO_STATE)
        for rho in (1.0, 1.2):
            for n in (1, 5, 10):
                gap = forms.sup_a_hat2(rho) - a_hat_second_moment_partial(TWO_STATE, rho, n)
                assert forms.a_hat2_tail(rho, n) == pytest.approx(gap, rel=1e-11)
        assert forms.a_hat2_tail(math.sqrt(2.0), 3) == math.inf
        assert p2_closed_forms(IIDMixture([OffspringLaw({2: 1.0})], [1.0])).a_hat2_tail(1.5, 3) == 0.0


class TestQuenchedTail:
    def test_constant_path_bracket_is_tight(self):
        # constant law {1:.5, 3:.5}: bar2 = 1/4, P_k = 2^k, so the true
        # infinite tail from n is exactly 2^{-n-1}
        path = EnvPath([OffspringLaw(SYM_PMF)] * 12)
        for n in (0, 2, 5):
            tail = quenched_p2_tail(path, n, 10)
            truth = 2.0 ** (-n - 1)
            assert tail.bound_available
            assert tail.lower <= truth <= tail.upper
            # for a constant geometric path the remainder bound is exact
            assert tail.upper == pytest.approx(truth, rel=1e-12)

    def test_increments_sum_to_the_partial_tail(self):
        path = EnvPath([GW, OffspringLaw(SYM_PMF), OffspringLaw({2: 1.0})] * 4)
        inc = quenched_increment_second_moments(path, 11)
        tail = quenched_p2_tail(path, 2, 10)
        assert tail.lower == pytest.approx(float(inc[2:11].sum()), rel=1e-12)

    def test_deterministic_path_has_zero_tail(self):
        path = EnvPath([OffspringLaw({2: 1.0})] * 8)
        tail = quenched_p2_tail(path, 1, 6)
        assert tail.lower == 0.0 and tail.upper == 0.0 and tail.bound_available

    def test_no_bound_when_means_dip_below_one(self):
        laws = [OffspringLaw({0: 0.5, 1: 0.5})] + [OffspringLaw(SYM_PMF)] * 8
        tail = quenched_p2_tail(EnvPath(laws), 0, 7)
        assert not tail.bound_available
        assert tail.upper == math.inf
        assert tail.lower > 0

    def test_bounds_validation(self):
        path = EnvPath([GW] * 6)
        with pytest.raises(ParameterError):
            quenched_p2_tail(path, 3, 3)
        with pytest.raises(ParameterError):
            quenched_p2_tail(path, 0, 6)


class TestQuenchedIncrements:
    def test_hand_values(self):
        path = EnvPath([GW, OffspringLaw(SYM_PMF)])
        inc = quenched_increment_second_moments(path, 2)
        # bar(GW) = 1/3 at P_0 = 1; bar(sym) = 1/4 at P_1 = 1.5
        assert inc == pytest.approx([1 / 3, 0.25 / 1.5], rel=1e-13)

    def test_matches_moment_table_differences(self):
        # orthogonal increments: E W_{n+1}^2 - E W_n^2 = P_n^{-1} bar_n(2)
        path = EnvPath([GW, OffspringLaw(SYM_PMF), OffspringLaw({2: 1.0}), GW] * 3)
        inc = quenched_increment_second_moments(path, 12)
        w2 = quenched_moments(path, 2, 12).w_moments(2)
        assert np.diff(w2) == pytest.approx(inc, rel=1e-10, abs=1e-14)

    def test_bounds_validation(self):
        with pytest.raises(ParameterError):
            quenched_increment_second_moments(EnvPath([GW]), 2)


class TestGrowthEnvelope:
    def test_exponent_formula(self):
        env = IIDMixture([GW], [1.0])
        assert growth_envelope(env, 0.0, 2, 12).gamma == pytest.approx(1.0)
        assert growth_envelope(env, 0.0, 3, 12).gamma == pytest.approx(3.0)
        assert growth_envelope(env, 0.0, 4, 12).gamma == pytest.approx(6.0)

    def test_holds_on_test_environments(self):
        for env in (IIDMixture([GW], [1.0]), TWO_STATE):
            for s in (0.0, 1.0, 2.0):
                for r in (2, 3, 4):
                    res = growth_envelope(env, s, r, 24)
                    assert res.holds, (env, s, r, res.max_excess)
                    assert res.max_excess <= 1e-9

    def test_degenerate_environment_holds(self):
        env = IIDMixture([OffspringLaw({2: 1.0})], [1.0])
        assert growth_envelope_check(env, 0.0, 3, 20)

    def test_validation(self):
        with pytest.raises(ParameterError):
            growth_envelope(TWO_STATE, 0.0, 1, 20)
        with pytest.raises(ParameterError):
            growth_envelope(TWO_STATE, 0.0, 3, 8)


class TestRecursionInequality:
    def test_nonnegative_slack_on_test_environments(self):
        for env in (IIDMixture([GW], [1.0]), TWO_STATE):
            for s in (0.0, 1.0, 2.0):
                for r in (3, 4, 5, 6):
                    slacks = recursion_inequality_slacks(env, s, r, 12)
                    assert slacks.shape == (12,)
                    assert slacks.min() >= -1e-12, (s, r, slacks.min())

    def test_validation(self):
        with pytest.raises(ParameterError):
            recursion_inequality_slacks(TWO_STATE, 0.0, 2, 10)
        with pytest.raises(ParameterError):
            recursion_inequality_slacks(TWO_STATE, 0.0, 3, 0)
