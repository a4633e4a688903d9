"""Unit tests for repro.decoder.variability (Def. 5, Examples 4-5)."""

import numpy as np
import pytest

from repro.codes import BalancedGrayCode, GrayCode, TreeCode, make_code
from repro.decoder.variability import (
    average_variability,
    code_variability,
    dose_count_matrix,
    nonzero_dose_mask,
    normalised_std_map,
    plan_variability,
    sigma_norm1,
    variability_matrix,
)
from repro.fabrication.doping import DopingPlan

EXAMPLE4_S = np.array([[0.0, -5, 0, 2], [-2, 7, 5, -7], [4, 2, 4, 9]])
EXAMPLE5_S = np.array([[0.0, -5, 0, 2], [-2, 0, 5, 0], [4, 9, 4, 2]])


class TestDoseCountMatrix:
    def test_paper_example4(self):
        nu = dose_count_matrix(EXAMPLE4_S)
        assert nu.tolist() == [[2, 3, 2, 3], [2, 2, 2, 2], [1, 1, 1, 1]]

    def test_paper_example5(self):
        nu = dose_count_matrix(EXAMPLE5_S)
        assert nu.tolist() == [[2, 2, 2, 2], [2, 1, 2, 1], [1, 1, 1, 1]]

    def test_last_row_is_all_ones_for_codes(self):
        """Prop. 4 proof: nu[N-1, j] = 1 — the last wire gets one dose."""
        for space in (TreeCode(2, 3), GrayCode(3, 2), make_code("HC", 2, 6)):
            plan = DopingPlan.from_code(space, 10)
            nu = dose_count_matrix(plan.steps)
            assert (nu[-1] == 1).all()

    def test_nu_non_increasing_in_wire_index(self):
        """Prop. 4 proof: nu only grows toward earlier-defined wires."""
        plan = DopingPlan.from_code(TreeCode(2, 4), 16)
        nu = dose_count_matrix(plan.steps)
        assert (np.diff(nu, axis=0) <= 0).all()

    def test_mask_empty_matrix(self):
        assert nonzero_dose_mask(np.zeros((2, 2))).sum() == 0


class TestVariabilityMatrix:
    def test_scales_by_sigma_squared(self):
        nu = dose_count_matrix(EXAMPLE4_S)
        sigma = variability_matrix(nu, sigma_t=0.05)
        assert np.allclose(sigma, 0.0025 * nu)

    def test_example4_norm(self):
        sigma = variability_matrix(dose_count_matrix(EXAMPLE4_S), 1.0)
        assert sigma_norm1(sigma) == 22.0

    def test_example5_norm_smaller(self):
        """Example 5: the Gray sequence cuts ||Sigma||_1 from 22 to 18."""
        sigma = variability_matrix(dose_count_matrix(EXAMPLE5_S), 1.0)
        assert sigma_norm1(sigma) == 18.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            variability_matrix(np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("sigma_t", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma_t):
        with pytest.raises(ValueError, match="finite"):
            variability_matrix(np.ones((2, 2)), sigma_t)


class TestAverageVariability:
    def test_average(self):
        sigma = np.full((2, 2), 4.0)
        assert average_variability(sigma) == 4.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            average_variability(np.zeros((0, 0)))


class TestCodeVariability:
    def test_gray_beats_tree(self):
        """Prop. 4 at platform scale."""
        tc = sigma_norm1(code_variability(TreeCode(2, 4), 20))
        gc = sigma_norm1(code_variability(GrayCode(2, 4), 20))
        assert gc < tc

    def test_balanced_spreads_evenly(self):
        """Fig. 6.e/f: BGC flattens the variability map."""
        tc_map = normalised_std_map(TreeCode(2, 4), 20)
        bgc_map = normalised_std_map(BalancedGrayCode(2, 4), 20)
        assert bgc_map.max() < tc_map.max()

    def test_std_map_is_sqrt_of_nu(self):
        space = GrayCode(2, 3)
        plan = DopingPlan.from_code(space, 12)
        nu = dose_count_matrix(plan.steps)
        assert np.allclose(normalised_std_map(space, 12), np.sqrt(nu))

    def test_longer_codes_lower_average_variability(self):
        """Sec. 6.2: longer codes have fewer transitions per digit."""
        short = average_variability(code_variability(make_code("TC", 2, 6), 20))
        long = average_variability(code_variability(make_code("TC", 2, 10), 20))
        assert long < short


class TestPlanVariability:
    def test_matches_manual_composition(self):
        plan = DopingPlan.from_code(GrayCode(2, 3), 10)
        manual = variability_matrix(dose_count_matrix(plan.steps), 0.05)
        assert np.allclose(plan_variability(plan, 0.05), manual)
