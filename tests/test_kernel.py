"""Tests for the oscillatory kernel, its regions, and the van der Corput checker."""

import os
import subprocess
import sys
import textwrap
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmax import kernel
from dispmax.cli import main
from dispmax.errors import ConfigError, DispmaxError, HypothesisError, QuadratureError
from dispmax.filters import psi
from dispmax.kernel import PhaseSpec, kernel_value, standard_phases, van_der_corput_check
from dispmax.spectral import DispersionProfile
from shell_ceiling import psi_sq_mass

PROFILE = DispersionProfile.power(2.0)
PSI_SQ_MASS = psi_sq_mass()


# A space-time point w = (x, t, theta) of the TT* pairs.
Point = namedtuple("Point", "x t theta")


def query(w, wp, lam=4.0, profile=PROFILE):
    """kernel_value's arguments for the pair (w, w'): the phase's xi
    coefficient x - x' + t*theta - t'*theta', then t - t', lambda, profile."""
    return (w.x - wp.x) + w.t * w.theta - wp.t * wp.theta, w.t - wp.t, lam, profile


class TestPhase:
    def test_hand_value(self, monkeypatch):
        # (x, x', t, t', theta, theta') = (0.7, -0.3, 0.5, 0, 0.4, 0.9): the
        # phase's xi coefficient is (0.7 + 0.3) + 0.5*0.4 - 0 = 1.2, and dt = 0.5
        pair = np.array([[0.7], [-0.3], [0.5], [0.0], [0.4], [0.9]])
        monkeypatch.setattr(kernel, "_sample_regions",
                            lambda *args: dict.fromkeys(kernel._REGIONS, pair))
        calls = []
        monkeypatch.setattr(kernel, "kernel_value", lambda *args: calls.append(args) or 1.0)
        report = kernel.decay_bound_scan(PROFILE, 0.5, [16.0], samples_per_region=1)
        assert [args[2:] for args in calls] == [(16.0, PROFILE)] * 3
        assert np.allclose([args[:2] for args in calls], [(1.2, 0.5)] * 3, rtol=0, atol=1e-12)
        # the V2 ratio |shift| / |x - x'| reads the same shift
        assert np.allclose(report.v2_ratio_range, (1.2, 1.2), rtol=0, atol=1e-12)


def region(w, wp, lam, sigma):
    return kernel._region_labels(abs(w.x - wp.x), abs(w.t - wp.t), lam ** (-sigma)).item()


class TestRegions:
    def test_hand_classified_triples(self):
        lam, sigma = 16.0, 0.5  # threshold 4*lam^(-sigma) = 1
        v1 = (Point(0.1, 0.9, 0.0), Point(0.0, 0.0, 0.0))
        v2 = (Point(1.0, 0.1, 0.0), Point(-0.5, 0.0, 0.0))
        v3 = (Point(0.5, 0.05, 0.0), Point(0.0, 0.0, 0.0))
        assert region(*v1, lam, sigma) == "V1"
        assert region(*v2, lam, sigma) == "V2"
        assert region(*v3, lam, sigma) == "V3"

    @pytest.mark.parametrize("dx, dt, label", [
        # |x - x'| = 4|t - t'| is not V1; 4 * 0.1 == 0.4 and 4 * 0.375 == 1.5 in floats
        (0.4, 0.1, "V3"), (np.nextafter(0.4, 0.0), 0.1, "V1"),
        (1.5, 0.375, "V2"), (np.nextafter(1.5, 0.0), 0.375, "V1"),
        # |x - x'| = 4*lam^(-sigma) = 1 is V2
        (1.0, 0.0, "V2"), (np.nextafter(1.0, 0.0), 0.0, "V3"),
    ])
    def test_boundaries(self, dx, dt, label):
        lam, sigma = 16.0, 0.5
        assert kernel._region_labels(dx, dt, lam ** (-sigma)).item() == label
        cols = kernel._region_labels(np.array([dx, 0.0]), np.array([dt, 1.0]), lam ** (-sigma))
        assert cols.tolist() == [label, "V1"]

    @given(
        x=st.floats(-1, 1), xp=st.floats(-1, 1),
        t=st.floats(-1, 1), tp=st.floats(-1, 1),
        lam_exp=st.integers(2, 10), sigma=st.floats(0.25, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_labels_match_definition(self, x, xp, t, tp, lam_exp, sigma):
        lam = 2.0**lam_exp
        label = region(Point(x, t, 0.0), Point(xp, tp, 0.0), lam, sigma)
        dx, dt = abs(x - xp), abs(t - tp)
        if dx < 4.0 * dt:
            assert label == "V1"
        elif dx >= 4.0 * lam**-sigma:
            assert label == "V2"
        else:
            assert label == "V3"


class TestKernelValue:
    def test_diagonal_equals_cutoff_mass(self):
        w = Point(0.3, 0.2, 0.1)
        k = kernel_value(*query(w, w))
        assert abs(k.imag) < 1e-12
        assert abs(k.real - PSI_SQ_MASS) < 1e-10

    def test_hermitian_symmetry(self):
        w = Point(0.4, 0.6, 0.05)
        wp = Point(-0.2, -0.3, 0.02)
        k1 = kernel_value(*query(w, wp, lam=8.0))
        k2 = kernel_value(*query(wp, w, lam=8.0))
        assert abs(k1 - np.conj(k2)) < 1e-10

    def test_trivial_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, xp, t, tp = rng.uniform(-1, 1, 4)
            k = kernel_value(*query(Point(x, t, 0.0), Point(xp, tp, 0.0), lam=16.0))
            assert abs(k) <= PSI_SQ_MASS * (1 + 1e-9)

    def test_oracle_density_agrees(self):
        w = Point(0.8, 0.7, 0.1)
        wp = Point(-0.6, -0.5, 0.0)
        q = query(w, wp, lam=64.0)
        assert abs(kernel_value(*q) - kernel_value(*q, density=3)) < 1e-8

    def test_pure_shift_against_dense_trapezoid(self):
        # dt = 0 reduces the kernel to the Fourier transform of psi^2
        lam = 32.0
        shift = 0.9
        xi = np.linspace(-2.0, 2.0, 2**18 + 1)
        exact = np.trapezoid(psi(xi) ** 2 * np.exp(1j * shift * lam * xi), xi)
        k = kernel_value(shift, 0.0, lam, PROFILE)
        assert abs(k - exact) < 1e-7

    def test_rejects_small_lambda(self):
        with pytest.raises(ValueError, match="lambda must be finite and at least 2, got 1.0"):
            kernel_value(0.0, 0.0, 1.0, PROFILE)

    @pytest.mark.parametrize("args, message", [
        ((np.nan, 0.3, 16.0), "shift=nan and dt=0.3 must be finite"),
        ((-np.inf, 0.3, 16.0), "shift=-inf and dt=0.3 must be finite"),
        ((0.5, np.nan, 16.0), "shift=0.5 and dt=nan must be finite"),
        ((0.5, np.inf, 16.0), "shift=0.5 and dt=inf must be finite"),
        ((0.5, 0.3, np.inf), "lambda must be finite and at least 2, got inf"),
        ((0.5, 0.3, np.nan), "lambda must be finite and at least 2, got nan"),
    ], ids=["shift-nan", "shift-inf", "dt-nan", "dt-inf", "lambda-inf", "lambda-nan"])
    def test_rejects_non_finite_arguments(self, args, message):
        # each used to run 64 refinement rounds and end in "failed to converge"
        with pytest.raises(ConfigError, match=message):
            kernel_value(*args, PROFILE)

    def test_huge_phase_exceeds_the_budget_before_any_int_cast(self):
        # a finite shift of 1e300 overflowed the int64 cast of the panel counts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="panel budget 1000000 exceeded"):
                kernel_value(1e300, 0.0, 16.0, PROFILE)

    def test_phase_overflow_fails_without_a_warning(self):
        # at lambda = 1e200, dt * lam * Phi'(lam * xi) overflows to inf; the
        # overflow warned before the budget check failed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="phase variation over a panel overflows"):
                kernel_value(0.5, 0.3, 1e200, PROFILE)


def reference_gauss_sum(shift, dt, lam, profile, density=1):
    """kernel_value as first written: fresh arrays per 4096-panel chunk, psi^2
    by whole-array interpolation, Phi evaluated per chunk."""

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


def panel_count(shift, dt, lam, profile):
    def dphase(xi):
        return shift * lam + dt * lam * profile.phi_prime(lam * xi)

    return len(kernel._refine_panels(kernel._SUPPORT, dphase)[0])


CUSTOM = DispersionProfile(
    phi=lambda xi: xi**2 + 0.1 * xi**4,
    phi_prime=lambda xi: 2.0 * xi + 0.4 * xi**3,
    phi_prime2=lambda xi: 2.0 + 1.2 * xi**2,
)
# (w, w'): at lambda = 16 no panel is refined; at lambda = 512 and a = 2 the
# first pair needs 2621 panels and the second 5390, past one 4096-panel chunk.
NEAR = (Point(0.3, 0.2, 0.1), Point(-0.4, -0.1, 0.05))
FAR = (Point(0.3, 0.25, 0.1), Point(-0.2, -0.25, 0.05))
LONG = (Point(0.3, 0.5, 0.1), Point(-0.2, -0.5, 0.05))


class TestGaussSumBits:
    """kernel_value equals reference_gauss_sum exactly, shared rule or not."""

    def check(self, pair, lam, profile, density=1):
        q = query(*pair, lam, profile)
        assert kernel_value(*q, density) == reference_gauss_sum(*q, density)
        return panel_count(*q)

    @pytest.mark.parametrize("a", [2.0, 1.2, 1.5])
    def test_unrefined_power(self, a):
        prof = DispersionProfile.power(a)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, xp, t, tp = rng.uniform(-1, 1, 4)
            pair = (Point(x, t, 0.01), Point(xp, tp, 0.02))
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
        near, long = query(*NEAR, 512.0), query(*LONG, 512.0)
        first = kernel_value(*near)
        kernel_value(*long)
        kernel_value(*query(*NEAR, 16.0), 3)
        assert kernel_value(*near) == first


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


def reference_stationary_pairs(rng, lam, width, profile):
    """Deterministic (w, w') pairs whose phase is stationary inside supp psi.

    The empirical sup of the decay product is attained near stationary
    configurations; sweeping the stationary point across the support makes
    that sup stable across lambda instead of depending on rare random hits.
    """
    pairs = []
    for xi_s in np.linspace(0.55, 1.95, 16):
        slope = abs(float(profile.phi_prime(lam * xi_s)))
        if slope == 0.0:
            continue
        for dx_target in (0.5, 1.0, 1.8):
            dt = dx_target / slope
            if dt > 1.99:
                continue
            th, thp = rng.uniform(0, width, 2)
            w = Point(-dx_target / 2.0, dt / 2.0, th)
            wp = Point(dx_target / 2.0, -dt / 2.0, thp)
            pairs.append((w, wp))
    return pairs


def reference_sample_regions(rng, lam, sigma, per_region, profile):
    """Seeded (w, w') pairs from W x W with per-region quotas.

    Near-stationary pairs are inserted first (they dominate the sup of the
    decay product); the remainder of each quota is rejection-sampled.
    """
    width = lam ** (-sigma)
    quota = {lab: [] for lab in ("V1", "V2", "V3")}
    for w, wp in reference_stationary_pairs(rng, lam, width, profile):
        lab = region(w, wp, lam, sigma)
        if len(quota[lab]) < per_region:
            quota[lab].append((w, wp))
    attempts = 0
    while any(len(v) < per_region for v in quota.values()):
        attempts += 1
        if attempts > 2000:
            raise DispmaxError(
                f"region sampling failed to fill the {per_region}-pair quotas at lambda {lam:g}"
            )
        m = 4096
        x, xp = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        t, tp = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        th, thp = rng.uniform(0, width, m), rng.uniform(0, width, m)
        lab = kernel._region_labels(np.abs(x - xp), np.abs(t - tp), width)
        for name in quota:
            need = per_region - len(quota[name])
            if need <= 0:
                continue
            idx = np.nonzero(lab == name)[0][:need]
            for i in idx:
                quota[name].append(
                    (Point(x[i], t[i], th[i]), Point(xp[i], tp[i], thp[i]))
                )
    return quota


# phi' is 0 up to xi = 9 and at most 0.8 beyond: at lambda = 16 the stationary
# sweep meets phi' = 0 at xi_s = 0.55, and dx = 1.8 always needs dt > 1.99.
SLOW = DispersionProfile(
    phi=lambda xi: 0.4 * np.clip(xi - 9.0, 0.0, 1.0) ** 2 + 0.8 * np.maximum(xi - 10.0, 0.0),
    phi_prime=lambda xi: 0.8 * np.clip(xi - 9.0, 0.0, 1.0),
    phi_prime2=lambda xi: np.where((xi > 9.0) & (xi < 10.0), 0.8, 0.0),
)


def sample(sampler, rng, lam, sigma, per_region, profile):
    """sampler's quotas, or its error message."""
    try:
        return sampler(rng, lam, sigma, per_region, profile)
    except DispmaxError as exc:
        return str(exc)


class TestSampler:
    """_sample_regions draws the pairs of reference_sample_regions, bit for bit."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("profile", [DispersionProfile.power(a) for a in (1.2, 1.5, 2.0, 3.0)]
                             + [SLOW], ids=["a1.2", "a1.5", "a2", "a3", "slow"])
    def test_matches_the_object_sampler(self, profile, sigma):
        failed = []
        for per_region in (1, 4, 50):
            old_rng, new_rng = np.random.default_rng(per_region), np.random.default_rng(per_region)
            for lam in (2.0**e for e in range(4, 11)):
                want = sample(reference_sample_regions, old_rng, lam, sigma, per_region, profile)
                got = sample(kernel._sample_regions, new_rng, lam, sigma, per_region, profile)
                if isinstance(want, str):
                    failed.append((per_region, lam))
                    assert got == want
                else:
                    assert list(got) == ["V1", "V2", "V3"]
                    for name, pairs in want.items():
                        rows = [(w.x, wp.x, w.t, wp.t, w.theta, wp.theta) for w, wp in pairs]
                        assert got[name].dtype == np.float64
                        assert got[name].shape == (6, per_region)
                        assert got[name].tobytes() == np.array(rows).T.tobytes()
                assert new_rng.bit_generator.state == old_rng.bit_generator.state
        # V3 needs |x - x'| < 4/lambda at sigma = 1: 2000 batches hold too few at 2^10
        assert failed == ([(50, 1024.0)] if sigma == 1.0 else [])

    def test_slow_profile_skips_stationary_pairs(self):
        rng = np.random.default_rng(0)
        # 15 slopes of 0.8 and one of 0 at lambda = 16; dx = 1.8 is skipped at both
        assert kernel._stationary_pairs(rng, 16.0, 0.25, SLOW).shape == (6, 15 * 2)
        assert kernel._stationary_pairs(rng, 32.0, 0.25, SLOW).shape == (6, 16 * 2)
        assert len(reference_stationary_pairs(rng, 16.0, 0.25, SLOW)) == 15 * 2


def reference_base_panels(intervals):
    """kernel._base_panels by the per-interval loop it used before it took
    the endpoint arrays in one linspace call; kept as the oracle."""
    a_parts, b_parts = [], []
    for lo, hi in intervals:
        edges = np.linspace(lo, hi, kernel._BASE_SPLIT + 1)
        a_parts.append(edges[:-1])
        b_parts.append(edges[1:])
    return np.concatenate(a_parts), np.concatenate(b_parts)


class TestBasePanels:
    @pytest.mark.parametrize("intervals", [
        kernel._SUPPORT, kernel._SUPPORT[:1], kernel._SUPPORT[1:],
        *([(spec.a, spec.b)] for spec, _ in standard_phases()),
        [(0.1, 0.7)], [(-0.3, 1.9)], [(-1, 2)],
    ], ids=["support", "support-left", "support-right", "linear", "quadratic-offset",
            "quadratic-stationary", "inside", "across-zero", "int-ends"])
    def test_matches_per_interval_loop_bit_for_bit(self, intervals):
        for got, want in zip(kernel._base_panels(intervals), reference_base_panels(intervals)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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

