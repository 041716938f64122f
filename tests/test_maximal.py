"""Tests for the directional maximal scan and the operator-norm probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmax.directions import make_intervals, make_points
from dispmax.maximal import (
    _scan,
    convergence_scan,
    estimate_operator_norm,
    fit_scaling_exponent,
    grid_for_band,
    low_frequency_check,
    lq_norm,
    maximal_function,
)
from dispmax.spectral import (
    DispersionProfile,
    SampledSignal,
    SpectralCoefficients,
    forward_transform,
    inverse_transform,
    make_sobolev_data,
)
from shell_ceiling import shell_ceiling

PROFILE = DispersionProfile.power(2.0)


def band_limited(seed, half_width=16.0, n=256, top=8.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(n, dtype=complex)
    xi = (np.pi / half_width) * np.arange(-n // 2, n // 2)
    sel = np.abs(xi) <= top
    c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    return inverse_transform(SpectralCoefficients(half_width, c))


def interpolate(f, x):
    """Exact trigonometric interpolation of f at arbitrary points."""
    c = forward_transform(f)
    xi = c.frequencies
    return (c.freq_step / (2.0 * np.pi)) * (np.exp(1j * np.outer(x, xi)) @ c.coeffs)


class TestMaximalFunction:
    def test_pure_mode_is_constant_one(self):
        half_width, n = 16.0, 256
        xi0 = np.pi * 20 / half_width
        x = -half_width + np.arange(n) * (2.0 * half_width / n)
        f = SampledSignal(half_width, np.exp(1j * xi0 * x))
        res = maximal_function(f, make_intervals([(-0.5, 0.5)]), PROFILE)
        assert np.max(np.abs(res.values - 1.0)) < 1e-13

    def test_dominates_time_zero_slice(self):
        f = band_limited(0)
        res = maximal_function(f, make_points([0.3]), PROFILE)
        # t = 0 is on the grid, so M f (x) >= |f| at the snapped points
        at_x = np.abs(interpolate(f, res.x))
        assert np.all(res.values >= at_x - 1e-10)

    def test_grid_refinement_is_stable(self):
        f = band_limited(1)
        theta = make_intervals([(0.0, 0.5)])
        band = forward_transform(f).band_limit()
        t_grid, theta_values = grid_for_band(band, PROFILE, theta)
        fine_t = np.linspace(t_grid[0], t_grid[-1], 2 * len(t_grid) - 1)
        fine_theta = np.linspace(theta_values[0], theta_values[-1], 2 * len(theta_values) - 1)
        mc = _scan(f, theta_values, t_grid, PROFILE, 65).values
        mf = _scan(f, fine_theta, fine_t, PROFILE, 65).values
        # nested grids: the refined sup dominates, but not by much
        assert np.all(mf >= mc - 1e-12)
        assert np.max(mf / mc) < 1.05

    def test_matches_direct_evaluation(self):
        f = band_limited(2, half_width=8.0, n=128, top=4.0)
        theta = make_points([-0.4, 0.7])
        res = maximal_function(f, theta, PROFILE, x_count=17)
        c = forward_transform(f)
        xi = c.frequencies
        t_grid, _ = grid_for_band(c.band_limit(), PROFILE, theta)
        # direct mode sum at the same snapped evaluation points
        h = res.lattice_step
        direct = np.zeros(17)
        for t in t_grid:
            coeff = np.exp(1j * t * PROFILE.phi(xi)) * c.coeffs
            for th in (-0.4, 0.7):
                pos = np.round((res.x + t * th + f.half_width) / h) * h - f.half_width
                u = (c.freq_step / (2.0 * np.pi)) * (np.exp(1j * np.outer(pos, xi)) @ coeff)
                direct = np.maximum(direct, np.abs(u))
        assert np.max(np.abs(res.values - direct)) < 1e-12

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_sublinear(self, seed):
        f = band_limited(seed)
        g = band_limited(seed + 1)
        fg = SampledSignal(f.half_width, f.values + g.values)
        theta = make_points([0.25])
        band = max(forward_transform(s).band_limit() for s in (f, g, fg))
        t_grid, theta_values = grid_for_band(band, PROFILE, theta)
        m = lambda s: _scan(s, theta_values, t_grid, PROFILE, 65).values
        assert np.all(m(fg) <= m(f) + m(g) + 1e-10)

    def test_monotone_in_direction_set(self):
        f = band_limited(3)
        small = make_points([0.0, 0.5])
        big = make_points([-0.5, 0.0, 0.25, 0.5])
        ms = maximal_function(f, small, PROFILE).values
        mb = maximal_function(f, big, PROFILE).values
        assert np.all(mb >= ms - 1e-12)

    @pytest.mark.parametrize("theta", [make_points([0.0]), make_intervals([(0.0, 0.5)])],
                             ids=["point", "interval"])
    def test_grid_meets_resolution_rule(self, theta):
        band = forward_transform(band_limited(4)).band_limit()
        t_grid, theta_values = grid_for_band(band, PROFILE, theta)
        assert t_grid[0] == -1.0 and t_grid[-1] == 1.0
        assert np.min(np.abs(t_grid)) < 1e-12  # t = 0 is on the grid
        # max |Phi| over the band is band^2 for Phi = xi^2
        assert np.max(np.diff(t_grid)) * band**2 <= 0.25 * (1 + 1e-12)
        lo, hi = theta.components[0]
        assert theta_values[0] == lo and theta_values[-1] == hi
        assert np.max(np.diff(theta_values), initial=0.0) * band <= 0.25 * (1 + 1e-12)


class TestConvergenceScan:
    def test_nested_suprema_are_monotone(self):
        f = make_sobolev_data(1.0, 5, half_width=16.0, n=512)
        theta = make_points([0.0])
        levels, sup = convergence_scan(f, theta, PROFILE, [1.0, 0.5, 0.25, 0.125])
        assert np.all(np.diff(levels) < 0)
        for a, b in zip(sup, sup[1:]):
            assert np.all(b <= a + 1e-12)

    def test_smooth_data_converges(self):
        f = band_limited(6, top=4.0)
        theta = make_points([0.0])
        levels, sup = convergence_scan(f, theta, PROFILE, [0.5, 0.05])
        assert np.median(sup[-1]) < 0.5 * np.median(sup[0])

    def test_rejects_bad_scales(self):
        f = band_limited(6)
        with pytest.raises(ValueError):
            convergence_scan(f, make_points([0.0]), PROFILE, [0.5, 1.5])


class TestLqNorm:
    def test_constant(self):
        ones = np.ones(64)
        assert abs(lq_norm(ones, 2.0) - np.sqrt(2.0)) < 1e-12
        assert abs(lq_norm(ones, 4.0) - 2.0**0.25) < 1e-12

    def test_ramp(self):
        x = -1.0 + (np.arange(1000) + 0.5) * (2.0 / 1000)
        assert abs(lq_norm(np.abs(x), 2.0) - np.sqrt(2.0 / 3.0)) < 1e-4

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            lq_norm(np.ones(4), 0.5)


class TestOperatorNorm:
    def test_deterministic_and_positive(self):
        est1 = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=3, seed=0)
        est2 = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=3, seed=0)
        assert est1.value == est2.value
        assert est1.value > 0
        assert est1.method in ("randomFamily", "alternatingMax")

    def test_more_trials_do_not_hurt_the_random_stage(self):
        few = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=2, seed=1, max_rounds=0)
        many = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=5, seed=1, max_rounds=0)
        assert many.value >= few.value - 1e-12

    def test_refinement_dominates_random_stage(self):
        raw = estimate_operator_norm(3, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=2, seed=0, max_rounds=0)
        ref = estimate_operator_norm(3, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=2, seed=0)
        assert ref.value >= raw.value - 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_stays_under_cauchy_schwarz_ceiling(self, k):
        # the value is a lower bound on a norm that cannot exceed B_k
        half_width = 32.0
        est = estimate_operator_norm(
            k, (0.0, 2.0 ** (-k / 2.0)), 2.0, 0.5, PROFILE, half_width=half_width
        )
        ceiling = shell_ceiling(k, 2.0, half_width)
        assert 0.0 < est.value <= ceiling * (1 + 1e-9)

    def test_rejects_wide_interval(self):
        with pytest.raises(ValueError):
            estimate_operator_norm(4, (0.0, 0.5), 2.0, 0.5, PROFILE)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            estimate_operator_norm(2, (0.0, 0.0), 8.0, 0.5, PROFILE)


class TestScalingFit:
    def test_exact_power_law(self):
        pairs = [(k, 3.0 * 2.0 ** (k / 4.0)) for k in range(2, 7)]
        slope, intercept, resid = fit_scaling_exponent(pairs)
        assert abs(slope - 0.25) < 1e-12
        assert abs(intercept - np.log2(3.0)) < 1e-12
        assert resid < 1e-12

    def test_noise_keeps_slope_near_truth(self):
        rng = np.random.default_rng(0)
        pairs = [(k, 2.0 ** (k / 4.0 + rng.uniform(-0.05, 0.05))) for k in range(2, 10)]
        slope, _, resid = fit_scaling_exponent(pairs)
        assert abs(slope - 0.25) < 0.05
        assert resid < 0.06

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(1, 1.0), (2, 2.0)])


class TestLowFrequency:
    def test_ratio_is_uniformly_bounded(self):
        theta = make_intervals([(-0.5, 0.5)])
        ratios = []
        for seed in range(20):
            f = band_limited(seed, top=4.0)
            ratios.append(low_frequency_check(f, theta, PROFILE))
        ratios = np.array(ratios)
        # lq(M P0 f) <= 2^(1/q) sup|P0 f| <= 2^(1/q)/(2 pi) * int psi0 |fhat|
        assert ratios.max() <= 2.0**0.5 / (2.0 * np.pi) + 1e-12
        assert ratios.max() / ratios.min() < 10.0
