import math

import numpy as np
import pytest

from localglauber import (
    ParameterError,
    combined_bound,
    delta_wrapup,
    mixing_bound,
    optimize_gamma,
    path_bound,
    v0_bound,
)
from localglauber.analysis import path_bound_partial_sums

# Independent high-precision evaluation of the contraction margin at
# (alpha=3, gamma=0.1), frozen from a 50-digit mpmath computation.
DELTA_3_01 = 0.018867764490913076


class TestPathBound:
    def test_worked_value(self):
        assert path_bound(2, 5, 0.25) == pytest.approx(0.125, abs=1e-15)

    def test_vanishes_with_gamma(self):
        assert path_bound(2, 5, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_partial_sums_converge_to_closed_form(self):
        for d, q, gamma in [(2, 5, 0.25), (3, 12, 0.4), (4, 9, 0.25)]:
            ratio = 2 * gamma * d / q
            assert ratio <= 0.5
            sums = path_bound_partial_sums(d, q, gamma, 60)
            assert sums[-1] == pytest.approx(path_bound(d, q, gamma), abs=1e-12)
            assert np.all(np.diff(sums) >= 0)

    def test_divergence_error(self):
        with pytest.raises(ParameterError):
            path_bound(4, 5, 0.7)  # 2*0.7*4/5 > 1

    def test_strictly_increasing_in_gamma(self):
        gammas = np.linspace(0.01, 0.4, 40)
        values = [path_bound(2, 5, g) for g in gammas]
        assert np.all(np.diff(values) > 0)


class TestV0Bound:
    def test_worked_value(self):
        assert v0_bound(2, 5, 0.5) == pytest.approx(0.853, abs=1e-12)

    def test_q_equal_degree_gives_one(self):
        assert v0_bound(3, 3, 0.4) == pytest.approx(1.0, abs=1e-15)

    def test_gamma_zero_gives_one(self):
        assert v0_bound(2, 5, 0.0) == 1.0

    def test_bracket(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            q = int(rng.integers(d + 1, 4 * d + 2))
            gamma = float(rng.uniform(0.01, 0.99))
            if 3 * gamma / q >= 1:
                continue
            value = v0_bound(d, q, gamma)
            assert 1 - gamma - 1e-12 <= value <= 1.0 + 1e-12


class TestDeltaWrapup:
    def test_gamma_zero(self):
        assert delta_wrapup(3.0, 0.0) == 0.0

    def test_high_precision_value(self):
        assert delta_wrapup(3.0, 0.1) == pytest.approx(DELTA_3_01, abs=1e-10)

    def test_alpha_two_never_positive_on_grid(self):
        gammas = np.arange(1e-4, 1.0, 1e-4)
        values = np.array([delta_wrapup(2.0, float(g)) for g in gammas])
        assert np.all(values <= 0)

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            delta_wrapup(2.0, 1.0)  # 2*gamma/alpha = 1

    def test_vanishes_as_gamma_to_zero(self):
        for alpha in (2.1, 3.0, 6.0):
            assert abs(delta_wrapup(alpha, 1e-9)) < 1e-8


class TestOptimizeGamma:
    @pytest.mark.parametrize("alpha", [2.01, 2.5, 3.0, 4.0])
    def test_feasible_and_matches_grid_scan(self, alpha):
        opt = optimize_gamma(alpha)
        assert opt.feasible and opt.delta > 0
        grid = np.arange(1e-4, min(1.0, alpha / 2), 1e-4)
        grid_best = max(delta_wrapup(alpha, float(g)) for g in grid)
        assert opt.delta >= grid_best - 1e-8

    def test_alpha_two_infeasible(self):
        opt = optimize_gamma(2.0)
        assert not opt.feasible and opt.delta <= 0

    def test_small_alpha_margin_small(self):
        opt = optimize_gamma(2.01)
        assert 0 < opt.delta < 1e-3
        assert opt.gamma < 0.05


class TestCombinedBound:
    def test_gamma_zero_is_exactly_one(self):
        report = combined_bound(2, 5, 0.0)
        assert report.v0_bound == 1.0
        assert report.path_bound == 0.0
        assert report.combined == 1.0

    def test_below_one_for_worked_parameters(self):
        report = combined_bound(2, 5, 0.1)
        assert report.combined < 1.0

    def test_combined_below_relaxed_bound_across_degrees(self):
        opt = optimize_gamma(3.0)
        for d in range(2, 11):
            q = 3 * d
            report = combined_bound(d, q, opt.gamma)
            if report.relaxation_valid:
                assert report.combined <= 1.0 - report.delta + 1e-12

    def test_report_fields_consistent(self):
        report = combined_bound(3, 9, 0.12)
        assert report.combined == pytest.approx(report.v0_bound + report.path_bound, abs=1e-15)
        assert report.alpha == pytest.approx(3.0)

    def test_edgeless_degree_rejected(self):
        # alpha = q / D is undefined at D = 0; this used to raise ZeroDivisionError.
        with pytest.raises(ParameterError):
            combined_bound(0, 5, 0.1)


class TestMixingBound:
    def test_worked_small_case(self):
        assert mixing_bound(0.5, 1, 0.5) == 2  # ceil(ln 2 / 0.5)

    def test_rounded_delta_reproduces_488(self):
        assert mixing_bound(0.0189, 100, 0.01) == 488

    def test_precise_delta_gives_489(self):
        assert mixing_bound(delta_wrapup(3.0, 0.1), 100, 0.01) == 489

    def test_log_additivity_in_eps(self):
        delta = 0.05
        t1 = mixing_bound(delta, 100, 0.1)
        t2 = mixing_bound(delta, 100, 0.1 / math.e)
        assert abs((t2 - t1) - 1 / delta) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            mixing_bound(0.0, 10, 0.1)
        with pytest.raises(ParameterError):
            mixing_bound(0.5, 0, 0.1)
        with pytest.raises(ParameterError):
            mixing_bound(0.5, 10, 1.5)
