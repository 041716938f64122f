"""Tests for the oscillatory kernel, its regions, and the van der Corput checker."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmax import kernel
from dispmax.cli import main
from dispmax.errors import HypothesisError
from dispmax.filters import psi
from dispmax.kernel import (
    KernelQuery,
    PhaseSpec,
    SpaceTimePoint,
    classify_region,
    kernel_value,
    standard_phases,
    van_der_corput_check,
)
from dispmax.spectral import DispersionProfile
from shell_ceiling import psi_sq_mass

PROFILE = DispersionProfile.power(2.0)
PSI_SQ_MASS = psi_sq_mass()


def query(w, wp, lam=4.0, profile=PROFILE):
    return KernelQuery(w, wp, lam, profile)


class TestPhase:
    def test_hand_value(self):
        w = SpaceTimePoint(x=0.7, t=0.5, theta=0.4)
        wp = SpaceTimePoint(x=-0.3, t=0.0, theta=0.9)
        # the phase's xi coefficient: (0.7 + 0.3) + 0.5*0.4 - 0 = 1.2
        assert kernel._shift(w, wp) == pytest.approx(1.2, abs=1e-12)


class TestRegions:
    def test_hand_classified_triples(self):
        lam, sigma = 16.0, 0.5  # threshold 4*lam^(-sigma) = 1
        v1 = (SpaceTimePoint(0.1, 0.9, 0.0), SpaceTimePoint(0.0, 0.0, 0.0))
        v2 = (SpaceTimePoint(1.0, 0.1, 0.0), SpaceTimePoint(-0.5, 0.0, 0.0))
        v3 = (SpaceTimePoint(0.5, 0.05, 0.0), SpaceTimePoint(0.0, 0.0, 0.0))
        assert classify_region(*v1, lam, sigma) == "V1"
        assert classify_region(*v2, lam, sigma) == "V2"
        assert classify_region(*v3, lam, sigma) == "V3"

    @given(
        x=st.floats(-1, 1), xp=st.floats(-1, 1),
        t=st.floats(-1, 1), tp=st.floats(-1, 1),
        lam_exp=st.integers(2, 10), sigma=st.floats(0.25, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_labels_match_definition(self, x, xp, t, tp, lam_exp, sigma):
        lam = 2.0**lam_exp
        w, wp = SpaceTimePoint(x, t, 0.0), SpaceTimePoint(xp, tp, 0.0)
        label = classify_region(w, wp, lam, sigma)
        dx, dt = abs(x - xp), abs(t - tp)
        if dx < 4.0 * dt:
            assert label == "V1"
        elif dx >= 4.0 * lam**-sigma:
            assert label == "V2"
        else:
            assert label == "V3"


class TestKernelValue:
    def test_diagonal_equals_cutoff_mass(self):
        w = SpaceTimePoint(0.3, 0.2, 0.1)
        k = kernel_value(query(w, w))
        assert abs(k.imag) < 1e-12
        assert abs(k.real - PSI_SQ_MASS) < 1e-10

    def test_hermitian_symmetry(self):
        w = SpaceTimePoint(0.4, 0.6, 0.05)
        wp = SpaceTimePoint(-0.2, -0.3, 0.02)
        k1 = kernel_value(query(w, wp, lam=8.0))
        k2 = kernel_value(query(wp, w, lam=8.0))
        assert abs(k1 - np.conj(k2)) < 1e-10

    def test_trivial_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, xp, t, tp = rng.uniform(-1, 1, 4)
            w, wp = SpaceTimePoint(x, t, 0.0), SpaceTimePoint(xp, tp, 0.0)
            k = kernel_value(query(w, wp, lam=16.0))
            assert abs(k) <= PSI_SQ_MASS * (1 + 1e-9)

    def test_oracle_density_agrees(self):
        w = SpaceTimePoint(0.8, 0.7, 0.1)
        wp = SpaceTimePoint(-0.6, -0.5, 0.0)
        q = query(w, wp, lam=64.0)
        assert abs(kernel_value(q) - kernel_value(q, density=3)) < 1e-8

    def test_pure_shift_against_dense_trapezoid(self):
        # dt = 0 reduces the kernel to the Fourier transform of psi^2
        w = SpaceTimePoint(0.5, 0.3, 0.0)
        wp = SpaceTimePoint(-0.4, 0.3, 0.0)
        lam = 32.0
        shift = w.x - wp.x
        xi = np.linspace(-2.0, 2.0, 2**18 + 1)
        exact = np.trapezoid(psi(xi) ** 2 * np.exp(1j * shift * lam * xi), xi)
        k = kernel_value(query(w, wp, lam=lam))
        assert abs(k - exact) < 1e-7

    def test_rejects_small_lambda(self):
        w = SpaceTimePoint(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            KernelQuery(w, w, 1.0, PROFILE)


def reference_gauss_sum(query, density=1):
    """kernel_value as first written: fresh arrays per 4096-panel chunk, psi^2
    by whole-array interpolation, Phi evaluated per chunk."""
    w, wp, lam, profile = query.w, query.w_prime, query.lam, query.profile
    shift = kernel._shift(w, wp)
    dt = w.t - wp.t

    def dphase(xi):
        return shift * lam + dt * lam * profile.phi_prime(lam * xi)

    table = kernel._psi_sq_table()
    diff = np.diff(table)

    def psi_sq(xi):
        pos = np.abs(xi)
        pos -= 0.5
        pos *= (len(table) - 1) / 1.5
        idx = np.minimum(pos.astype(np.int64), len(diff) - 1)
        frac = pos
        frac -= idx
        out = diff[idx]
        out *= frac
        out += table[idx]
        return out

    def phi_at(nodes):
        if profile.a is not None:
            if profile.a == 2.0:
                return (lam * lam) * (nodes * nodes)
            return lam**profile.a * np.abs(nodes) ** profile.a
        return np.asarray(profile.phi(lam * nodes), dtype=float)

    a, b = kernel._refine_panels(kernel._SUPPORT, dphase)
    if density > 1:
        offs = np.arange(density) / density
        width = (b - a) / density
        a = (a[:, None] + offs[None, :] * (b - a)[:, None]).ravel()
        b = a + np.repeat(width, density)
    re_total = 0.0
    im_total = 0.0
    chunk = 4096
    for start in range(0, len(a), chunk):
        aa = a[start : start + chunk]
        bb = b[start : start + chunk]
        half = 0.5 * (bb - aa)
        nodes = 0.5 * (aa + bb)[:, None] + half[:, None] * kernel._GL_NODES[None, :]
        phase = phi_at(nodes)
        phase *= dt
        phase += (shift * lam) * nodes
        amp = psi_sq(nodes)
        amp *= half[:, None]
        re = np.cos(phase)
        re *= amp
        im = np.sin(phase)
        im *= amp
        re_total += float(re.sum(axis=0) @ kernel._GL_WEIGHTS)
        im_total += float(im.sum(axis=0) @ kernel._GL_WEIGHTS)
    return complex(re_total, im_total)


def panel_count(q):
    shift, dt = kernel._shift(q.w, q.w_prime), q.w.t - q.w_prime.t

    def dphase(xi):
        return shift * q.lam + dt * q.lam * q.profile.phi_prime(q.lam * xi)

    return len(kernel._refine_panels(kernel._SUPPORT, dphase)[0])


CUSTOM = DispersionProfile(
    phi=lambda xi: xi**2 + 0.1 * xi**4,
    phi_prime=lambda xi: 2.0 * xi + 0.4 * xi**3,
    phi_prime2=lambda xi: 2.0 + 1.2 * xi**2,
)
# (w, w'): at lambda = 16 no panel is refined; at lambda = 512 and a = 2 the
# first pair needs 2621 panels and the second 5390, past one 4096-panel chunk.
NEAR = (SpaceTimePoint(0.3, 0.2, 0.1), SpaceTimePoint(-0.4, -0.1, 0.05))
FAR = (SpaceTimePoint(0.3, 0.25, 0.1), SpaceTimePoint(-0.2, -0.25, 0.05))
LONG = (SpaceTimePoint(0.3, 0.5, 0.1), SpaceTimePoint(-0.2, -0.5, 0.05))


class TestGaussSumBits:
    """kernel_value equals reference_gauss_sum exactly, shared rule or not."""

    def check(self, pair, lam, profile, density=1):
        q = KernelQuery(*pair, lam, profile)
        assert kernel_value(q, density) == reference_gauss_sum(q, density)
        return panel_count(q)

    @pytest.mark.parametrize("a", [2.0, 1.2, 1.5])
    def test_unrefined_power(self, a):
        prof = DispersionProfile.power(a)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, xp, t, tp = rng.uniform(-1, 1, 4)
            pair = (SpaceTimePoint(x, t, 0.01), SpaceTimePoint(xp, tp, 0.02))
            assert self.check(pair, 16.0, prof) == 2 * kernel._BASE_SPLIT

    def test_refined_across_a_chunk_and_a_partial_block(self):
        n = self.check(LONG, 512.0, PROFILE)
        assert n > kernel._SUM_CHUNK and n % kernel._BLOCK
        assert self.check(FAR, 512.0, PROFILE) > kernel._BLOCK

    @pytest.mark.parametrize("density", [3, 10])
    def test_density(self, density):
        assert self.check(NEAR, 16.0, PROFILE, density) == 2 * kernel._BASE_SPLIT
        assert self.check(NEAR, 16.0, DispersionProfile.power(1.5), density)
        assert self.check(FAR, 512.0, PROFILE, density) * density > kernel._SUM_CHUNK

    def test_custom_profile(self):
        assert self.check(NEAR, 8.0, CUSTOM) == 2 * kernel._BASE_SPLIT
        assert self.check(FAR, 32.0, CUSTOM) > kernel._SUM_CHUNK

    def test_work_arrays_carry_nothing_between_queries(self):
        # kernel_value reuses one set of work arrays for every query
        near, long = KernelQuery(*NEAR, 512.0, PROFILE), KernelQuery(*LONG, 512.0, PROFILE)
        first = kernel_value(near)
        kernel_value(long)
        kernel_value(KernelQuery(*NEAR, 16.0, PROFILE), 3)
        assert kernel_value(near) == first


def psi_sq_by_stored_differences(xi):
    """_psi_sq as written with a second, stored array diff = np.diff(table)."""
    table = kernel._psi_sq_table()
    diff = np.diff(table)
    pos = np.abs(xi)
    pos -= 0.5
    pos *= (len(table) - 1) / 1.5
    idx = np.clip(pos.astype(np.int64), 0, len(diff) - 1)
    frac = pos
    frac -= idx
    out = diff[idx]
    out *= frac
    out += table[idx]
    return out


class TestPsiSq:
    def test_table_is_psi_squared_bit_for_bit(self):
        want = psi(np.linspace(0.5, 2.0, 2**20 + 1)) ** 2
        want[0] = want[-1] = 0.0
        assert kernel._psi_sq_table().tobytes() == want.tobytes()

    def test_matches_stored_differences_bit_for_bit(self):
        rng = np.random.default_rng(7)
        edges = [0.5, -0.5, 2.0, -2.0, 0.0, 0.25, -0.4999999, 2.0000001, -3.0, 7.5]
        xi = np.concatenate([rng.uniform(-2.5, 2.5, 4000), edges]).reshape(10, 401)
        want = psi_sq_by_stored_differences(xi).tobytes()
        assert kernel._psi_sq(xi).tobytes() == want
        out, pos = np.empty_like(xi), np.empty_like(xi)
        idx = np.empty(xi.shape, dtype=np.int64)
        assert kernel._psi_sq(xi, out, pos, idx).tobytes() == want
        assert kernel._psi_sq(xi, out).tobytes() == want
        assert kernel._psi_sq(xi, pos=pos, idx=idx).tobytes() == want

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
    def test_table_build_adds_little_to_peak_memory(self):
        # In a fresh interpreter, so that the peak is the build's own.  It
        # reads VmHWM, the peak RSS of the process's own memory, because
        # ru_maxrss starts at the peak of the process that launched it.  The
        # table is 8.4 MB; building it in one piece raised the peak by ~73 MB.
        runner = textwrap.dedent("""
            from dispmax import kernel

            def peak_kib():
                with open("/proc/self/status") as fh:
                    return int(fh.read().split("VmHWM:")[1].split()[0])

            before = peak_kib()
            kernel._psi_sq_table()
            print(peak_kib() - before)
        """)
        src = str(Path(kernel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", runner], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 1024 < 24

    def test_zero_off_the_support(self):
        # below |xi| = 0.5 the table index used to wrap to the far end
        xi = np.array([0.0, 0.3, -0.3, 2.5, -2.5])
        assert np.array_equal(kernel._psi_sq(xi), np.zeros(5))

    def test_matches_psi_squared_and_buffers(self):
        xi = np.linspace(-2.0, 2.0, 1001).reshape(7, 143)
        want = psi(xi) ** 2
        got = kernel._psi_sq(xi)
        assert np.max(np.abs(got - want)) < 1e-9
        out, pos = np.empty_like(xi), np.empty_like(xi)
        idx = np.empty(xi.shape, dtype=np.int64)
        assert kernel._psi_sq(xi, out, pos, idx) is out
        assert np.array_equal(out, got)


class TestSharedRule:
    def shared(self):
        return kernel._unrefined_rule(1)

    def test_read_only(self):
        for arr in self.shared():
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
            with pytest.raises(ValueError):
                arr *= 2.0

    def test_kernel_scan_leaves_it_intact(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("lambda_min_exp = 4\nlambda_max_exp = 8\nsamples_per_region = 4\n")
        for a in ("2", "1.5"):
            argv = ["kernel-scan", "--a", a, "--config", str(cfg), "--out", str(tmp_path)]
            assert main(argv) == 0
        for arr, want in zip(self.shared(), kernel._unrefined_rule.__wrapped__(1)):
            assert arr.tobytes() == want.tobytes()


class TestVanDerCorput:
    def test_reference_phases_validate(self):
        lam_list = [2.0**e for e in range(4, 11)]
        for phase, k in standard_phases():
            rows = van_der_corput_check(phase, lam_list, k)
            ratios = [r[2] for r in rows]
            assert max(ratios) / min(ratios) < 10.0

    def test_linear_phase_ratio_is_flat(self):
        (lin, k), _, _ = standard_phases()
        rows = van_der_corput_check(lin, [2.0**e for e in range(4, 11)], k)
        ratios = [r[2] for r in rows]
        assert max(ratios) / min(ratios) < 1.1

    def test_offset_quadratic_decays_like_boundary_term(self):
        _, (quad, k), _ = standard_phases()
        rows = van_der_corput_check(quad, [2.0**e for e in range(4, 11)], k)
        # integral ~ lambda^(-1) so the lambda^(1/2)-normalized ratio
        # decays ~ lambda^(-1/2): factor 8 over a 2^6 span
        assert rows[0][2] / rows[-1][2] == pytest.approx(8.0, rel=0.15)

    def test_stationary_quadratic_hits_the_rate(self):
        _, _, (quad0, k) = standard_phases()
        rows = van_der_corput_check(quad0, [2.0**e for e in range(4, 11)], k)
        ratios = [r[2] for r in rows]
        assert max(ratios) / min(ratios) < 1.1

    def test_rejects_stationary_point_at_order_one(self):
        _, _, (quad0, _) = standard_phases()
        with pytest.raises(HypothesisError):
            van_der_corput_check(quad0, [16.0], 1)

    def test_rejects_bad_order(self):
        (lin, _), _, _ = standard_phases()
        with pytest.raises(ValueError):
            van_der_corput_check(lin, [16.0], 3)

    def test_rejects_non_monotone_first_derivative(self):
        # phi' = 2 + sin(5x) stays above 1 but turns on (1, 2)
        (lin, _), _, _ = standard_phases()
        wavy = PhaseSpec("wavy", 1.0, 2.0, phi=lambda x: 2.0 * x - np.cos(5.0 * x) / 5.0,
                         derivs={1: lambda x: 2.0 + np.sin(5.0 * x),
                                 2: lambda x: 5.0 * np.cos(5.0 * x)},
                         psi=lin.psi)
        with pytest.raises(HypothesisError, match="not monotonic"):
            van_der_corput_check(wavy, [16.0], 1)

    def test_phase_spec_needs_an_amplitude(self):
        (lin, _), _, _ = standard_phases()
        with pytest.raises(TypeError):
            PhaseSpec(lin.name, lin.a, lin.b, phi=lin.phi, derivs=lin.derivs)

