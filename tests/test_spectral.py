"""Tests for the transform pair, the propagator, and Sobolev machinery."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmax.cli import main
from dispmax.errors import ConfigError, NonconformingProfileError, RangeError
from dispmax.spectral import (
    DispersionProfile,
    SampledSignal,
    SpectralCoefficients,
    check_dispersion_conditions,
    evolve,
    forward_transform,
    inverse_transform,
    make_sobolev_data,
    signal_from_csv,
    sobolev_norm,
)


def random_signal(seed, half_width=8.0, n=256):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SampledSignal(half_width, vals)


class TestForwardTransform:
    def test_constant_signal_has_only_zero_frequency(self):
        f = SampledSignal(np.pi, np.ones(8, dtype=complex))
        c = forward_transform(f)
        zero = np.argmin(np.abs(c.frequencies))
        assert abs(c.coeffs[zero] - 2.0 * np.pi) < 1e-12
        rest = np.delete(c.coeffs, zero)
        assert np.max(np.abs(rest)) < 1e-12

    def test_pure_mode_gives_single_coefficient(self):
        n = 8
        x = -np.pi + np.arange(n) * (2.0 * np.pi / n)
        f = SampledSignal(np.pi, np.exp(1j * x))
        c = forward_transform(f)
        at_one = np.argmin(np.abs(c.frequencies - 1.0))
        assert abs(c.coeffs[at_one] - 2.0 * np.pi) < 1e-12
        rest = np.delete(c.coeffs, at_one)
        assert np.max(np.abs(rest)) < 1e-12

    def test_gaussian_matches_closed_form(self):
        L, n = 20.0, 1024
        x = -L + np.arange(n) * (2.0 * L / n)
        f = SampledSignal(L, np.exp(-(x**2) / 2.0).astype(complex))
        c = forward_transform(f)
        sel = np.abs(c.frequencies) <= 10.0
        exact = np.sqrt(2.0 * np.pi) * np.exp(-c.frequencies[sel] ** 2 / 2.0)
        err = np.abs(c.coeffs[sel] - exact)
        # relative accuracy where the target sits above the float64 noise
        # floor; absolute (peak-relative) accuracy in the far tail
        above = exact > 1e-7
        assert np.max(err[above] / exact[above]) < 1e-8
        assert np.max(err) / np.sqrt(2.0 * np.pi) < 1e-14

    def test_band_limit_of_zero_spectrum_is_zero(self):
        assert SpectralCoefficients(8.0, np.zeros(64)).band_limit() == 0.0


class TestInverseTransform:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_identity(self, seed):
        f = random_signal(seed)
        g = inverse_transform(forward_transform(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(g.values - f.values)) / scale < 1e-12

    def test_parseval(self):
        f = random_signal(3, n=256)
        c = forward_transform(f)
        lhs = f.grid_step * np.sum(np.abs(f.values) ** 2)
        rhs = c.freq_step / (2.0 * np.pi) * np.sum(np.abs(c.coeffs) ** 2)
        assert abs(lhs - rhs) / lhs < 1e-12


class TestEvolve:
    def test_identity_at_time_zero(self):
        f = random_signal(0)
        g = evolve(f, 0.0, DispersionProfile.power(2.0))
        assert np.array_equal(g.values, f.values)

    def test_pure_mode_picks_up_unimodular_factor(self):
        L, n = 16.0, 128
        x = -L + np.arange(n) * (2.0 * L / n)
        xi0 = np.pi * 12 / L
        f = SampledSignal(L, np.exp(1j * xi0 * x))
        g = evolve(f, 0.1, DispersionProfile.power(2.0))
        expected = np.exp(1j * 0.1 * xi0**2) * f.values
        assert np.max(np.abs(g.values - expected)) < 1e-12

    def test_gaussian_closed_form(self):
        L, n, t = 20.0, 2048, 0.25
        x = -L + np.arange(n) * (2.0 * L / n)
        f = SampledSignal(L, np.exp(-(x**2) / 2.0).astype(complex))
        g = evolve(f, t, DispersionProfile.power(2.0))
        z = 1.0 - 2.0j * t
        exact = z**-0.5 * np.exp(-(x**2) / (2.0 * z))
        rel = np.max(np.abs(g.values - exact)) / np.max(np.abs(exact))
        assert rel < 1e-6

    def test_rejects_nonfinite_time(self):
        f = random_signal(0)
        with pytest.raises(ValueError):
            evolve(f, np.nan, DispersionProfile.power(2.0))

    def test_overflowing_phase_raises_before_any_warning(self):
        # t*Phi(xi) passes 1.8e308 on this grid; the |t| > 1 warning would come second
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="the phase t\\*Phi\\(xi\\) overflows"):
                evolve(random_signal(0), 1e308, DispersionProfile.power(2.0))

    @given(seed=st.integers(0, 2**31), t=st.floats(-1.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_unitarity(self, seed, t):
        f = random_signal(seed)
        g = evolve(f, t, DispersionProfile.power(2.0))
        assert abs(g.l2_norm() - f.l2_norm()) / f.l2_norm() < 1e-10

    @given(seed=st.integers(0, 2**31), t1=st.floats(-0.5, 0.5), t2=st.floats(-0.5, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_group_law(self, seed, t1, t2):
        f = random_signal(seed)
        prof = DispersionProfile.power(2.0)
        lhs = evolve(evolve(f, t1, prof), t2, prof)
        rhs = evolve(f, t1 + t2, prof)
        scale = np.max(np.abs(rhs.values))
        assert np.max(np.abs(lhs.values - rhs.values)) / scale < 1e-10


class TestSobolevNorm:
    def test_order_zero_is_l2(self):
        f = random_signal(5)
        assert abs(sobolev_norm(f, 0.0) - f.l2_norm()) / f.l2_norm() < 1e-12

    def test_pure_mode_scaling(self):
        L, n = 16.0, 256
        x = -L + np.arange(n) * (2.0 * L / n)
        xi0 = 3.0  # on the frequency grid: 3 = pi*j/L needs j = 3L/pi... use grid freq
        j = round(xi0 * L / np.pi)
        xi0 = np.pi * j / L
        f = SampledSignal(L, np.exp(1j * xi0 * x))
        base = f.l2_norm()
        for s in (0.5, 1.0, 2.0):
            expected = (1.0 + xi0**2) ** (s / 2.0) * base
            assert abs(sobolev_norm(f, s) - expected) / expected < 1e-10

    def test_gaussian_against_dense_quadrature(self):
        L, n = 20.0, 1024
        x = -L + np.arange(n) * (2.0 * L / n)
        f = SampledSignal(L, np.exp(-(x**2) / 2.0).astype(complex))
        xi = np.linspace(-30, 30, 200001)
        fhat = np.sqrt(2.0 * np.pi) * np.exp(-(xi**2) / 2.0)
        exact = np.sqrt(np.trapezoid((1 + xi**2) * fhat**2, xi) / (2.0 * np.pi))
        assert abs(sobolev_norm(f, 1.0) - exact) / exact < 1e-6

    def test_overflow_raises(self):
        # (1+xi^2)^150 overflows at the top frequency |xi| of about 25
        f = make_sobolev_data(1.0, 7, half_width=32.0, n=512)
        assert np.isfinite(sobolev_norm(f, 100.0))
        with pytest.raises(RangeError, match="overflows"):
            sobolev_norm(f, 150.0)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
    def test_needs_a_finite_order(self, s):
        # a NaN order was reported as "the H^nan norm overflows"
        with pytest.raises(ConfigError, match=f"^s={s} must be finite$"):
            sobolev_norm(random_signal(5), s)

    def test_noise_floor_raises(self):
        # H^15 data on 512 points: near |xi| = 25 the coefficients are
        # rounding noise, about 1e-16, which (1+xi^2)^15 lifts above the data
        f = make_sobolev_data(15.0, 0, half_width=32.0, n=512)
        with pytest.raises(RangeError, match="rounding noise"):
            sobolev_norm(f, 15.0)
        g = make_sobolev_data(9.0, 0, half_width=32.0, n=512)  # noise at 2.8e-7 of the sum
        assert abs(sobolev_norm(g, 9.0) - 1.10162) < 5e-6


class TestMakeSobolevData:
    def test_deterministic_under_seed(self):
        f = make_sobolev_data(1.0, 7)
        g = make_sobolev_data(1.0, 7)
        assert np.array_equal(f.values, g.values)

    def test_norm_above_order_grows_with_resolution(self):
        prev = None
        for n in (512, 1024, 2048, 4096):
            f = make_sobolev_data(1.0, 7, half_width=32.0, n=n)
            v = sobolev_norm(f, 2.0)
            if prev is not None:
                assert v / prev > 1.2
            prev = v

    def test_norm_at_order_stabilizes_with_resolution(self):
        # The tail of the H^s sum decays slowly (exponent margin 0.01), so
        # per-doubling changes are several percent at these sizes; they must
        # stay moderate and shrink as the grid refines.
        vals = [
            sobolev_norm(make_sobolev_data(1.0, 7, half_width=32.0, n=n), 1.0)
            for n in (1024, 2048, 4096, 8192)
        ]
        changes = [abs(b - a) / a for a, b in zip(vals, vals[1:])]
        assert all(c < 0.15 for c in changes)
        assert changes[-1] < changes[0]

    def test_smaller_order_has_heavier_tail(self):
        f = make_sobolev_data(0.5, 11)
        g = make_sobolev_data(2.0, 11)
        cf = forward_transform(f)
        cg = forward_transform(g)
        sel = np.abs(cf.frequencies) >= 1.0
        assert np.all(np.abs(cf.coeffs[sel]) >= np.abs(cg.coeffs[sel]))

    def test_underflowing_spectrum_raises(self):
        # |c| = (1+xi^2)^(-(s+0.51)/2) leaves the normal floats near s = 180
        # at the top frequency |xi| of about 50 of this grid
        assert np.all(np.isfinite(make_sobolev_data(150.0, 7).values))
        with pytest.raises(RangeError, match="underflows"):
            make_sobolev_data(400.0, 7)


class TestDispersionConditions:
    def test_quadratic_profile_constants(self):
        c1, c2 = check_dispersion_conditions(DispersionProfile.power(2.0))
        assert abs(c1 - 2.0) < 1e-9
        assert abs(c2 - 1.0) < 1e-9

    def test_power_profile_constants(self):
        c1, c2 = check_dispersion_conditions(DispersionProfile.power(1.5))
        assert abs(c1 - 0.75) < 1e-6
        assert abs(c2 - 0.5) < 1e-6

    def test_linear_profile_is_rejected(self):
        prof = DispersionProfile(
            phi=lambda xi: xi,
            phi_prime=lambda xi: np.ones_like(np.asarray(xi, dtype=float)),
            phi_prime2=lambda xi: np.zeros_like(np.asarray(xi, dtype=float)),
        )
        with pytest.raises(NonconformingProfileError):
            check_dispersion_conditions(prof)

    def test_sign_changing_curvature_is_rejected(self):
        # Phi'' = -sin(xi) changes sign at xi = pi on [1, 64]
        prof = DispersionProfile(phi=np.sin, phi_prime=np.cos, phi_prime2=lambda xi: -np.sin(xi))
        with pytest.raises(NonconformingProfileError, match="changes sign"):
            check_dispersion_conditions(prof)

    def test_power_profile_rejects_overflow(self):
        prof = DispersionProfile.power(300.0)
        assert abs(prof.phi(10.0) / 1e300 - 1.0) < 1e-12
        with pytest.raises(NonconformingProfileError, match="not finite"):
            prof.phi(np.array([0.0, 2.0, 20.0]))

    @pytest.mark.parametrize("a", [1.0, float("inf"), float("nan")])
    def test_power_profile_needs_finite_exponent_above_one(self, a):
        with pytest.raises(ConfigError):
            DispersionProfile.power(a)


class TestSignalCsv:
    @pytest.mark.parametrize("half_width", [0.0, float("nan"), float("inf"), 1e308])
    def test_needs_a_finite_box_width(self, half_width):
        # 2*1e308 overflows: the grid step and every frequency would be inf or nan
        with pytest.raises(ConfigError, match="2\\*half_width must be positive and finite"):
            SampledSignal(half_width, np.ones(8))

    def test_round_trip(self, tmp_path):
        # evolve at t = 0 writes its input, the seeded data, under a provenance header
        assert main(["evolve", "--t", "0", "--seed", "2", "--out", str(tmp_path)]) == 0
        g = signal_from_csv((tmp_path / "evolved.csv").read_text())
        f = make_sobolev_data(1.0, 2, half_width=32.0, n=512)
        assert g.half_width == f.half_width
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("body", [
        "-2,1,0\n-1,1,0\n3,1,0\n4,1,0\n",
        "0,1,0\n1,1,0\n2,1,0\n3,1,0\n",
        "-2,1,0\n-1,nan,0\n0,1,0\n1,1,0\n",
        "-2,1,0\n-1,1,-inf\n0,1,0\n1,1,0\n",
    ], ids=["nonuniform-x", "x-not-centred", "nan-sample", "inf-sample"])
    def test_rejects_malformed(self, body):
        with pytest.raises(ValueError):
            signal_from_csv("x,re,im\n" + body)
