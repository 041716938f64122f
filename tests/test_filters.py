"""Tests for the dyadic multipliers and the frequency projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmax.errors import AliasingError, ConfigError
from dispmax.filters import MAX_BAND, project, psi, psi0, psi_k
from dispmax.spectral import (
    DispersionProfile,
    SampledSignal,
    evolve,
    forward_transform,
    inverse_transform,
    SpectralCoefficients,
)
from shell_ceiling import psi_sq_mass


def band_limited_signal(seed, half_width=16.0, n=512, top=12.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(n, dtype=complex)
    xi = (np.pi / half_width) * np.arange(-n // 2, n // 2)
    sel = np.abs(xi) <= top
    c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    return inverse_transform(SpectralCoefficients(half_width, c))


class TestBankValues:
    def test_origin_belongs_to_low_pass_only(self):
        assert psi0(0.0) == 1.0
        for k in range(1, 6):
            assert psi_k(k, 0.0) == 0.0

    def test_partition_at_unit_frequency(self):
        assert psi0(1.0) == 0.0
        assert psi_k(2, 1.0) == 0.0
        total = psi0(1.0) + sum(psi_k(k, 1.0) for k in range(1, 6))
        assert abs(total - 1.0) < 1e-12
        assert abs(psi_k(1, 1.0) - 1.0) < 1e-12

    def test_two_shells_cover_an_interior_point(self):
        assert psi0(3.3) == 0.0
        assert psi_k(1, 3.3) == 0.0
        two = psi_k(2, 3.3) + psi_k(3, 3.3)
        assert abs(two - 1.0) < 1e-12

    def test_partition_of_unity_on_log_grid(self):
        xi = np.concatenate([-np.geomspace(1e-3, 16.0, 5000), np.geomspace(1e-3, 16.0, 5000)])
        total = psi0(xi) + sum(psi_k(k, xi) for k in range(1, 6))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_supports(self):
        xi = np.linspace(-64, 64, 20001)
        assert np.all(psi0(xi)[np.abs(xi) >= 1.0] < 1e-15)
        p = psi(xi)
        outside = (np.abs(xi) <= 0.5) | (np.abs(xi) >= 2.0)
        assert np.all(p[outside] < 1e-15)

    def test_ranges(self):
        xi = np.linspace(-40, 40, 8001)
        for vals in (psi0(xi), psi(xi)):
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_mass_constant(self):
        xi = np.linspace(-2.0, 2.0, 2**20 + 1)
        riemann = np.trapezoid(psi(xi) ** 2, xi)
        assert abs(psi_sq_mass() - riemann) < 1e-9

    def test_band_bounds(self):
        with pytest.raises(ValueError):
            psi_k(0, 1.0)
        with pytest.raises(ValueError):
            psi_k(MAX_BAND + 1, 1.0)


class TestProjections:
    def test_single_mode_multiplier(self):
        half_width, n, k = 16.0, 512, 3
        xi0 = 2.0 ** (k - 1) * 1.2
        j = round(xi0 * half_width / np.pi)
        xi0 = np.pi * j / half_width
        x = -half_width + np.arange(n) * (2.0 * half_width / n)
        f = SampledSignal(half_width, np.exp(1j * xi0 * x))
        g = project(f, k)
        expected = psi_k(k, xi0) * f.values
        assert np.max(np.abs(g.values - expected)) < 1e-12

    def test_projections_sum_back(self):
        f = band_limited_signal(4)
        total = project(f, 0).values.copy()
        for k in range(1, 6):
            total += project(f, k).values
        assert np.max(np.abs(total - f.values)) / np.max(np.abs(f.values)) < 1e-10

    def test_distant_shells_annihilate(self):
        f = band_limited_signal(5)
        g = project(project(f, 1), 3)
        assert np.max(np.abs(g.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_aliasing_guard(self):
        f = band_limited_signal(7, half_width=16.0, n=128)  # Nyquist = 4*pi
        with pytest.raises(AliasingError):
            project(f, 5)
        # band 3's shell reaches |xi| = 8, band 4's 16
        project(f, 3)
        with pytest.raises(AliasingError, match=r"k=4 reaches \|xi\|=16"):
            project(f, 4)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.nan], ids=["half", "float", "nan"])
    def test_band_index_is_an_integer(self, k):
        # psi_k(2.5, .) and project(f, 2.5) ran on the shell 2^1.5 <= |xi| ~ 2^2.5,
        # which no dyadic partition holds
        with pytest.raises(ConfigError, match="must be an integer"):
            psi_k(k, np.linspace(-8.0, 8.0, 17))
        with pytest.raises(ConfigError, match="must be an integer"):
            project(band_limited_signal(3), k)

    @given(seed=st.integers(0, 2**31), k=st.integers(0, 5), t=st.floats(-1.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_evolution(self, seed, k, t):
        f = band_limited_signal(seed)
        prof = DispersionProfile.power(2.0)
        lhs = project(evolve(f, t, prof), k)
        rhs = evolve(project(f, k), t, prof)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(lhs.values - rhs.values)) / scale < 1e-12

    @given(seed=st.integers(0, 2**31), k=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_projection_contracts_l2(self, seed, k):
        f = band_limited_signal(seed)
        assert project(f, k).l2_norm() <= f.l2_norm() * (1 + 1e-12)
