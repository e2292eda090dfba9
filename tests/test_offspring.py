"""Offspring-law construction and exact moments/cumulants."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from bprelab import OffspringLaw, ParameterError

GW = {0: 0.25, 2: 0.75}


def dyadic_laws(max_value=4, max_atoms=4):
    """Laws whose probabilities are exact binary fractions.

    Keeping every probability dyadic means the float pmf is exact, so the
    Fraction-based oracles and the float engine see literally the same law.
    """

    @st.composite
    def build(draw):
        values = draw(
            st.lists(st.integers(0, max_value), min_size=1, max_size=max_atoms, unique=True)
        )
        if all(v == 0 for v in values):
            values.append(draw(st.integers(1, max_value)))
        weights = [draw(st.integers(1, 8)) for _ in values]
        total = 1 << (sum(weights) - 1).bit_length()
        weights[-1] += total - sum(weights)
        return {v: w / total for v, w in zip(values, weights)}

    return build()


class TestConstruction:
    def test_empty_pmf_rejected(self):
        with pytest.raises(ParameterError):
            OffspringLaw({})

    def test_negative_value_rejected(self):
        with pytest.raises(ParameterError, match="non-negative integer"):
            OffspringLaw({-1: 0.5, 2: 0.5})

    def test_non_integer_value_rejected(self):
        with pytest.raises(ParameterError):
            OffspringLaw({1.5: 1.0})

    def test_negative_probability_rejected(self):
        with pytest.raises(ParameterError):
            OffspringLaw({0: -0.25, 2: 1.25})

    @pytest.mark.parametrize("pmf, refusal", [
        ({True: 0.5, 3: 0.5}, "offspring value True is not a non-negative integer"),
        ({1: "0.5", 3: "0.5"}, "probabilities must be finite, non-negative real numbers; got '0.5'"),
    ], ids=["bool-value", "string-probabilities"])
    def test_what_the_config_loader_refuses_is_refused(self, pmf, refusal):
        # a bool is an int and float("0.5") parses, so both once made a law
        with pytest.raises(ParameterError, match=re.escape(refusal)):
            OffspringLaw(pmf)

    def test_bad_total_rejected(self):
        with pytest.raises(ParameterError, match="sum to"):
            OffspringLaw({0: 0.25, 2: 0.25})

    def test_total_tolerance_is_1e_12(self):
        # a total off by 2e-12 is refused with the bad-total message; one off by 5e-13 is kept
        # and divided by its total, so the stored probabilities sum to 1
        with pytest.raises(ParameterError, match=r"probabilities sum to 1\.000000000002\d*, not 1"):
            OffspringLaw({0: 0.25, 2: 0.75 + 2e-12})
        total = math.fsum([0.25, 0.75 + 5e-13])
        law = OffspringLaw({0: 0.25, 2: 0.75 + 5e-13})
        assert total != 1.0
        assert law.probs.tolist() == [0.25 / total, (0.75 + 5e-13) / total]
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-15)

    def test_all_mass_at_zero_rejected(self):
        with pytest.raises(ParameterError, match="mean must be positive"):
            OffspringLaw({0: 1.0})

    def test_zero_atoms_dropped(self):
        law = OffspringLaw({0: 0.25, 2: 0.75, 7: 0.0})
        assert law.max_support == 2
        assert law.as_mapping() == {0: 0.25, 2: 0.75}

    def test_basic_properties(self):
        law = OffspringLaw(GW)
        assert law.mean == 1.5
        assert law.log_mean == pytest.approx(math.log(1.5), rel=1e-15)
        assert law.max_support == 2
        assert not law.is_deterministic
        assert OffspringLaw({3: 1.0}).is_deterministic

    def test_equality_and_hash(self):
        assert OffspringLaw(GW) == OffspringLaw({2: 0.75, 0: 0.25})
        assert OffspringLaw(GW) != OffspringLaw({1: 1.0})
        assert hash(OffspringLaw(GW)) == hash(OffspringLaw(GW))

    def test_the_hashed_arrays_are_read_only(self):
        # the hash is taken once, so the values and probs it reads cannot change under it
        law = OffspringLaw(GW)
        for array in (law.values, law.probs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert hash(law) == hash((law.values.tobytes(), law.probs.tobytes()))


class TestMoments:
    def test_moment_order_zero_is_one(self):
        assert OffspringLaw(GW).moment(0.0) == 1.0

    def test_zero_support_contributes_nothing_for_positive_order(self):
        law = OffspringLaw({0: 0.5, 2: 0.5})
        assert law.moment(1.5) == pytest.approx(0.5 * 2**1.5, rel=1e-15)

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError):
            OffspringLaw(GW).moment(-0.5)

    def test_centered_abs_moment_frozen(self):
        # E|X/1.5 - 1|^2 = 0.25 * 1 + 0.75 * (1/3)^2 = 1/3
        assert OffspringLaw(GW).centered_abs_moment(2.0) == pytest.approx(1 / 3, rel=1e-15)
        assert OffspringLaw({2: 1.0}).centered_abs_moment(2.0) == 0.0

    def test_raw_moments_match_direct_sums(self):
        law = OffspringLaw({1: 0.5, 3: 0.5})
        mu = [law.moment(k) for k in range(1, 5)]
        assert mu == pytest.approx([2.0, 5.0, 14.0, 41.0], rel=1e-15)

    @given(dyadic_laws())
    def test_raw_moments_match_oracle(self, pmf):
        law = OffspringLaw(pmf)
        dist = oracles.law_fractions(pmf)
        for k in range(1, 5):
            assert law.moment(k) == pytest.approx(
                float(oracles.dist_moment(dist, k)), rel=1e-12, abs=1e-12
            )


class TestCumulants:
    def test_frozen_binary_law(self):
        # oracle (central moments): k = (3/2, 3/4, -3/4, -3/8)
        kappa = OffspringLaw(GW).cumulants(4)
        assert kappa == pytest.approx([1.5, 0.75, -0.75, -0.375], rel=1e-14)

    def test_frozen_symmetric_law(self):
        # {1: .5, 3: .5}: variance 1, symmetric so k3 = 0, k4 = mu4 - 3 = -2
        kappa = OffspringLaw({1: 0.5, 3: 0.5}).cumulants(4)
        assert kappa == pytest.approx([2.0, 1.0, 0.0, -2.0], rel=1e-14, abs=1e-14)

    def test_deterministic_law_has_only_first_cumulant(self):
        kappa = OffspringLaw({2: 1.0}).cumulants(6)
        assert kappa[0] == 2.0
        assert kappa[1:] == pytest.approx(np.zeros(5), abs=1e-12)

    @given(dyadic_laws())
    def test_low_orders_match_central_moment_oracle(self, pmf):
        kappa = OffspringLaw(pmf).cumulants(4)
        expected = [float(x) for x in oracles.cumulants_low_order(pmf)]
        assert kappa == pytest.approx(expected, rel=1e-11, abs=1e-11)

    @given(dyadic_laws(max_value=3, max_atoms=3), dyadic_laws(max_value=3, max_atoms=3))
    def test_additive_under_convolution(self, pmf_a, pmf_b):
        # cumulants of an independent sum are the sums of cumulants
        summed = oracles.convolve(oracles.law_fractions(pmf_a), oracles.law_fractions(pmf_b))
        law_sum = OffspringLaw({v: float(p) for v, p in summed.items()})
        total = OffspringLaw(pmf_a).cumulants(5) + OffspringLaw(pmf_b).cumulants(5)
        assert law_sum.cumulants(5) == pytest.approx(total, rel=1e-10, abs=1e-10)

    def test_order_bounds(self):
        with pytest.raises(ParameterError):
            OffspringLaw(GW).cumulants(0)
        with pytest.raises(ParameterError):
            OffspringLaw(GW).cumulants(13)
