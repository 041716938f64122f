"""Tests for the directional maximal scan and the operator-norm probes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmax import maximal
from dispmax.directions import make_cantor, make_intervals, make_points
from dispmax.errors import MAX_COUNT, ConfigError, RangeError
from dispmax.filters import project, psi0, psi_k
from dispmax.maximal import (
    _scan,
    convergence_scan,
    estimate_operator_norm,
    fit_scaling_exponent,
    grid_for_band,
    lq_norm,
    maximal_function,
)
from dispmax.spectral import (
    DispersionProfile,
    SampledSignal,
    SpectralCoefficients,
    _alternating_sign,
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


class TestGridForBand:
    @pytest.mark.parametrize("a, band, theta", [
        (300.0, 4.0, make_points([0.0])),  # |Phi| about 4^300 asks for ~10^181 t steps
        (5.0, 64.0, make_points([0.0])),  # about 8.6e9 t steps
        (2.0, 2.0**25, make_intervals([(-1.0, 1.0)])),  # and as many theta steps
    ], ids=["a300", "a5-band64", "theta"])
    def test_refuses_oversized_grids(self, a, band, theta):
        with pytest.raises(RangeError, match="the resolution rule asks for"):
            grid_for_band(band, DispersionProfile.power(a), theta)

    @pytest.mark.parametrize("x", [-0.7, 0.0, 0.3])
    @pytest.mark.parametrize("band", [0.0, 5.0, 64.0])
    def test_point_grid_equals_zero_width_interval_grid(self, x, band):
        # estimate_operator_norm builds every Omega, widths 0 included, with make_intervals
        by_point = grid_for_band(band, PROFILE, make_points([x]))
        by_interval = grid_for_band(band, PROFILE, make_intervals([(x, x)]))
        assert by_point[1].tobytes() == np.array([x]).tobytes()
        for got, want in zip(by_interval, by_point):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t_range", [-1.0, 0.0, -0.0, np.nan, np.inf])
    def test_refuses_empty_or_reversed_t_range(self, t_range):
        # -1 gave the reversed grid [1, 0, -1] and 0 gave [0, 0, 0]
        with pytest.raises(ConfigError, match=f"t_range must lie in \\(0, inf\\), got {t_range}"):
            grid_for_band(4.0, PROFILE, make_points([0.0]), t_range=t_range)

    @pytest.mark.parametrize("band", [-1.0, -np.inf, np.nan, np.inf])
    def test_refuses_negative_or_non_finite_band(self, band):
        # NaN gave the grid [-1, 0, 1] and -1 a 9-slice grid; band 0, a zero signal's, stays legal
        with pytest.raises(ConfigError, match=f"^band must lie in \\[0, inf\\), got {band}$"):
            grid_for_band(band, PROFILE, make_points([0.0]))

    def test_largest_grid_is_allowed(self):
        # a=2 at band 2^10 (k=10) asks for about 8.4e6 t steps, under the cap
        t_grid, _ = grid_for_band(2.0**10, PROFILE, make_points([0.0]))
        assert 8e6 < len(t_grid) < MAX_COUNT


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


def reference_scan(f, theta_values, t_grid, profile, x_count, r_levels=None):
    """The scan as first written: one fresh zero-padded buffer per chunk, the
    whole row scaled by 1/h, and one flat argmax over (t, theta) pairs."""
    subtract = r_levels is not None
    c = forward_transform(f)
    band = c.band_limit()
    half_width = f.half_width
    step_target = 0.25 / band if band > 0 else f.grid_step
    n_eval = f.n
    while 2.0 * half_width / n_eval > step_target:
        n_eval *= 2
    h = 2.0 * half_width / n_eval

    n = f.n
    adj = _alternating_sign(n) * c.coeffs
    pos_in_eval = np.arange(-n // 2, n // 2) % n_eval
    phi = np.asarray(profile.phi(c.frequencies), dtype=float)

    ideal = -1.0 + (np.arange(x_count) + 0.5) * (2.0 / x_count)
    x_idx = np.round((ideal + half_width) / h).astype(np.int64)
    x_snap = x_idx * h - half_width

    base = np.zeros(n_eval, dtype=complex)
    base[pos_in_eval] = adj
    f0 = (np.fft.ifft(base) / h)[x_idx % n_eval] if subtract else None

    n_theta = len(theta_values)
    best = np.full(x_count, -1.0)
    best_t = np.zeros(x_count, dtype=np.int64)
    best_th = np.zeros(x_count, dtype=np.int64)
    level_max = np.zeros((len(r_levels), x_count)) if subtract else None

    cur = np.exp(1j * t_grid[0] * phi)
    dt = t_grid[1] - t_grid[0] if len(t_grid) > 1 else 0.0
    step_mult = np.exp(1j * dt * phi)

    for start in range(0, len(t_grid), 64):
        t_chunk = t_grid[start : start + 64]
        m = len(t_chunk)
        coeff = np.empty((m, n), dtype=complex)
        coeff[0] = cur
        for i in range(1, m):
            coeff[i] = coeff[i - 1] * step_mult
        cur = coeff[-1] * step_mult
        a = np.zeros((m, n_eval), dtype=complex)
        a[:, pos_in_eval] = coeff * adj
        fields = np.fft.ifft(a, axis=1) / h

        idx = np.round(
            (x_snap[None, :, None] + t_chunk[:, None, None] * theta_values[None, None, :] + half_width) / h
        ).astype(np.int64) % n_eval
        g = np.take_along_axis(fields, idx.reshape(m, -1), axis=1).reshape(m, x_count, n_theta)
        if subtract:
            g = g - f0[None, :, None]
        vals = np.abs(g)

        flat = vals.transpose(1, 0, 2).reshape(x_count, m * n_theta)
        cand = flat.max(axis=1)
        arg = flat.argmax(axis=1)
        upd = cand > best
        best = np.where(upd, cand, best)
        best_t = np.where(upd, start + arg // n_theta, best_t)
        best_th = np.where(upd, arg % n_theta, best_th)

        if subtract:
            abs_t = np.abs(t_chunk)
            for li, r in enumerate(r_levels):
                sel = abs_t <= r * (1 + 1e-12)
                if sel.any():
                    level_max[li] = np.maximum(level_max[li], vals[sel].max(axis=(0, 2)))

    return best, best_t, best_th, level_max, h


def assert_matches_reference(res, want, r_levels):
    """res, a MaximalResult, is bit for bit the reference_scan output want.

    A convergence scan produces no argmax, so there only the maxima compare.
    """
    values, t_arg, theta_arg, level_max, h = want
    assert np.array_equal(res.values, values)
    assert res.lattice_step == h
    if r_levels is None:
        assert np.array_equal(res.t_arg, t_arg)
        assert np.array_equal(res.theta_arg, theta_arg)
        assert res.level_max is None
    else:
        assert res.t_arg is None and res.theta_arg is None
        assert np.array_equal(res.level_max, level_max)
        assert np.array_equal(res.values, res.level_max[0])


def levels_held(t_grid, r_levels):
    """Per time slice, how many levels r hold it (|t| <= r, with _scan's slack)."""
    return np.count_nonzero(np.abs(t_grid)[:, None] <= r_levels * (1 + 1e-12), axis=1)


def block_plan(half_width, t_grid, theta_values, h, x_count=65):
    """(row cap, plan) of a scan grid at the current _BLOCK_BYTES, as _scan builds them."""
    rows = min(len(t_grid), max(1, maximal._BLOCK_BYTES // (16 * round(2.0 * half_width / h))))
    x_idx = snapped_x(half_width, h, x_count)[0]
    return rows, maximal._build_plan(t_grid, theta_values, h, x_idx, rows)


def level_fold_of_plain_pass(f, theta_values, t_grid, h, x_count):
    """_level_max at the one level r = max|t| over f's complex128 window pass without f(x)."""
    c = forward_transform(f)
    phi = np.asarray(PROFILE.phi(c.frequencies), dtype=float)
    x_idx, x_snap = snapped_x(f.half_width, h, x_count)
    n_eval = round(2.0 * f.half_width / h)
    blocks = maximal._blocks(c, phi, t_grid, theta_values, h, n_eval, x_idx, x_snap, False)
    return maximal._level_max(blocks, t_grid, np.array([np.abs(t_grid).max()]), x_count)[0]


class TestScanMatchesReference:
    """The blocked scan reproduces the reference bit for bit, with blocks of
    one slice, of three FFT rows, of one widest window and of the default
    byte budget, and whether it builds its plan or takes it from the memo.
    In plain mode the level fold over the complex128 window pass gives
    _certify's values, bit for bit: the window read and the cell-by-cell
    read agree."""

    def check(self, f, theta_values, t_grid, r_levels=None, x_count=65):
        want = reference_scan(f, theta_values, t_grid, PROFILE, x_count, r_levels)
        h = want[-1]
        n_eval = round(2.0 * f.half_width / h)
        width = maximal._direction_offsets(t_grid[:, None] * theta_values[None, :], h)[3].max()
        window_budget = 32 * x_count * int(width)  # one widest window a block
        for budget in (1, 3 * 16 * n_eval, window_budget, maximal._BLOCK_BYTES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(maximal, "_BLOCK_BYTES", budget)
                res = _scan(f, theta_values, t_grid, PROFILE, x_count, r_levels=r_levels)
                rows, plan = block_plan(f.half_width, t_grid, theta_values, h, x_count)
                if r_levels is None:
                    folded = level_fold_of_plain_pass(f, theta_values, t_grid, h, x_count)
            assert_matches_reference(res, want, r_levels)
            if r_levels is None:
                assert folded.tobytes() == res.values.tobytes()
            slices, widths = plan.blocks[:, 1] - plan.blocks[:, 0], plan.blocks[:, 4]
            assert slices.max() <= rows
            assert np.all((32 * x_count * slices * widths <= budget) | (slices == 1))
            if budget == window_budget:
                # a block holding a widest window is one slice, below a row
                # cap of two or more exactly when x_count * width >= n_eval
                assert np.all(slices[widths == width] == 1)
                assert (rows > 1) == (x_count * width >= n_eval)
        return res

    @pytest.mark.parametrize("levels", [None, [0.75, 0.3]], ids=["plain", "levels"])
    def test_back_to_back_scans_share_the_plan_memo(self, levels, monkeypatch):
        builds = []
        build = maximal._build_plan
        monkeypatch.setattr(maximal, "_build_plan", lambda *a: builds.append(a[2]) or build(*a))
        monkeypatch.setattr(maximal, "_plan_memo", {})
        r_levels = None if levels is None else np.array(levels)
        f1, f2 = band_limited(20, half_width=12.0), band_limited(21, half_width=12.0)
        narrow = band_limited(22, half_width=12.0, top=4.0)  # half the band: a coarser lattice
        band = forward_transform(f1).band_limit()
        assert forward_transform(f2).band_limit() == band
        t_grid, theta_values = grid_for_band(band, PROFILE, make_intervals([(-0.5, 1.0)]),
                                             t_range=1.0 if levels is None else levels[0])
        # (signal, x_count, block budget, plan builds after the scan)
        steps = [(f1, 65, maximal._BLOCK_BYTES, 1), (f2, 65, maximal._BLOCK_BYTES, 1),
                 (narrow, 65, maximal._BLOCK_BYTES, 2), (f1, 33, maximal._BLOCK_BYTES, 3),
                 (f1, 33, 3 * 16 * 1024, 4), (f2, 33, 3 * 16 * 1024, 4)]
        for f, x_count, budget, n_builds in steps:
            want = reference_scan(f, theta_values, t_grid, PROFILE, x_count, r_levels)
            monkeypatch.setattr(maximal, "_BLOCK_BYTES", budget)
            res = _scan(f, theta_values, t_grid, PROFILE, x_count, r_levels=r_levels)
            assert_matches_reference(res, want, r_levels)
            assert len(builds) == n_builds
        assert builds[1] == 2.0 * builds[0]  # the narrow band's lattice step

    def test_point_direction(self):
        f = band_limited(7)
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                             make_points([0.3]))
        self.check(f, theta_values, t_grid)

    def test_wide_interval_crosses_block_boundaries(self):
        f = band_limited(8, half_width=12.0)
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                             make_intervals([(-1.0, 1.0)]))
        h = self.check(f, theta_values, t_grid).lattice_step
        rows, plan = block_plan(12.0, t_grid, theta_values, h)
        assert rows == 128
        slices, widths = plan.blocks[:, 1] - plan.blocks[:, 0], plan.blocks[:, 4]
        # the windows cut every block below the row cap, and the last block
        # is partial: the grid ends where its windows leave room for a slice
        assert len(slices) > 2 and slices.max() < rows
        assert 32 * 65 * (slices[-1] + 1) * widths[-1] <= maximal._BLOCK_BYTES

    def test_convergence_levels(self):
        f = make_sobolev_data(1.0, 9, half_width=12.0, n=256)  # h is not a power of two
        theta = make_intervals([(-1.0, 1.0)])
        levels = np.array([0.5, 0.25, 0.1])
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE, theta,
                                             t_range=0.5)
        h = self.check(f, theta_values, t_grid, r_levels=levels).lattice_step
        # at the default budget each edge |t| = 0.25, 0.1 falls inside a block,
        # whose slices then hold two level counts
        held = levels_held(t_grid, levels)
        _, plan = block_plan(f.half_width, t_grid, theta_values, h)
        counts = [len(set(held[a:b].tolist())) for a, b in plan.blocks[:, :2].tolist()]
        assert max(counts) == 2 and counts.count(2) == 4

    def test_level_holding_only_the_t0_slice(self):
        f = band_limited(11, half_width=12.0)
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                             make_cantor(2, 1.0 / 3.0, 4), t_range=0.5)
        levels = np.array([0.5, 0.125, 0.25 * (t_grid[1] - t_grid[0])])
        h = self.check(f, theta_values, t_grid, r_levels=levels).lattice_step
        held = levels_held(t_grid, levels)
        assert np.array_equal(np.flatnonzero(held == 3), [len(t_grid) // 2])
        # the default block around t = 0 holds three counts, count 2 on both sides of it
        _, plan = block_plan(f.half_width, t_grid, theta_values, h)
        (a, b), = [(a, b) for a, b in plan.blocks[:, :2].tolist() if a <= len(t_grid) // 2 < b]
        assert set(held[a:b].tolist()) == {1, 2, 3}

    def test_ties_take_the_first_pair(self):
        f = SampledSignal(8.0, np.zeros(64, dtype=complex))
        theta_values, t_grid = np.linspace(0.0, 1.0, 300), np.linspace(-1.0, 1.0, 129)
        res = _scan(f, theta_values, t_grid, PROFILE, 65)
        assert np.all(res.values == 0.0)
        assert np.all(res.t_arg == 0) and np.all(res.theta_arg == 0)
        self.check(f, theta_values, t_grid)

    @pytest.mark.parametrize("half_width", [0.6, 1.3], ids=["hw0.6", "hw1.3"])
    @pytest.mark.parametrize("levels", [None, [0.75, 0.3]], ids=["plain", "levels"])
    def test_windows_wrap_around_the_box(self, half_width, levels):
        # x + t*theta leaves [-half_width, half_width), so the lattice span
        # of a block wraps, at 0.6 by more than one period
        f = band_limited(10, half_width=half_width, n=64, top=12.0)
        t_range = 1.0 if levels is None else levels[0]
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                             make_intervals([(-1.0, 1.0)]), t_range=t_range)
        self.check(f, theta_values, t_grid,
                   r_levels=None if levels is None else np.array(levels))

    @pytest.mark.parametrize("levels", [None, [0.5, 0.125]], ids=["plain", "levels"])
    def test_cantor_directions_with_gaps(self, levels):
        f = band_limited(11, half_width=12.0)
        t_range = 1.0 if levels is None else levels[0]
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                             make_cantor(2, 1.0 / 3.0, 4), t_range=t_range)
        self.check(f, theta_values, t_grid,
                   r_levels=None if levels is None else np.array(levels))

    @pytest.mark.parametrize("levels", [None, [1.0, 0.5]], ids=["plain", "levels"])
    def test_exact_half_integer_offsets(self, levels):
        # h is a power of two, so t*theta/h is exactly k + 1/2 for t = +-0.5
        # and theta = h, 3h, and for t = +-1 and theta = -h/2; rint then
        # rounds each x_idx + k + 1/2 to the even neighbour, by parity of x_idx
        f = band_limited(12, half_width=8.0, n=64, top=6.0)
        t_grid = np.linspace(-1.0, 1.0, 5)
        h = _scan(f, np.array([0.0]), t_grid, PROFILE, 65).lattice_step
        assert h == 2.0 ** np.round(np.log2(h))
        theta_values = np.array([-0.5 * h, h, 3.0 * h])
        near_tie = maximal._direction_offsets(t_grid[:, None] * theta_values[None, :], h)[1]
        assert near_tie.sum() == 6
        self.check(f, theta_values, t_grid, r_levels=None if levels is None else np.array(levels))

    def test_point_direction_convergence_levels(self):
        f = make_sobolev_data(0.8, 12, half_width=12.0, n=256)
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                             make_points([0.9]), t_range=0.5)
        self.check(f, theta_values, t_grid, r_levels=np.array([0.5, 0.25, 0.0625]))


def test_tie_free_convergence_scan_takes_no_cell_index(monkeypatch):
    # a convergence scan takes no argmax, so off near ties it never takes
    # the per-cell index; a plain scan certifies its marked cells with it
    calls = []
    cell_index = maximal._cell_index
    monkeypatch.setattr(maximal, "_cell_index", lambda *a: calls.append(a) or cell_index(*a))
    f = band_limited(11, half_width=12.0)
    t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                         make_cantor(2, 1.0 / 3.0, 4), t_range=0.5)
    h = _scan(f, theta_values, t_grid, PROFILE, 65).lattice_step
    assert calls
    assert not maximal._direction_offsets(t_grid[:, None] * theta_values[None, :], h)[1].any()
    calls.clear()
    res = _scan(f, theta_values, t_grid, PROFILE, 65, r_levels=np.array([0.5, 0.125]))
    assert calls == []
    assert np.array_equal(res.values, res.level_max[0])


def test_norm_estimate_builds_one_plan_per_grid(monkeypatch):
    # every trial and round of one band scans one grid, so shares one plan
    builds, scans = [], []
    build, scan = maximal._build_plan, maximal._scan
    monkeypatch.setattr(maximal, "_build_plan", lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(maximal, "_scan", lambda *a, **kw: scans.append(a) or scan(*a, **kw))
    monkeypatch.setattr(maximal, "_plan_memo", {})
    estimate_operator_norm(3, (0.0, 2.0**-1.5), 2.0, 0.5, PROFILE, trials=3, seed=0)
    assert len(scans) > 3
    assert len(builds) == 1


def test_plan_of_the_largest_criterion_4_grid_is_small():
    # criterion 4's k=6 band, Omega = [0, 2^-3]: its shell signals take
    # the 2^14-point lattice; the plan is built without any FFT
    k, half_width, n_eval, x_count = 6, 32.0, 1 << 14, 65
    t_grid, theta_values = grid_for_band(2.0**k, PROFILE, make_intervals([(0.0, 2.0 ** (-k / 2))]))
    assert (len(t_grid), len(theta_values)) == (32769, 33)
    h = 2.0 * half_width / n_eval
    x_idx, _ = snapped_x(half_width, h, x_count)
    rows = maximal._BLOCK_BYTES // (16 * n_eval)
    plan = maximal._build_plan(t_grid, theta_values, h, x_idx, rows)
    arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2 * 2**20
    # every axis counts time slices, blocks, near-tie pairs or window
    # offsets, none x points
    start, stop, width = plan.blocks[:, 0], plan.blocks[:, 1], plan.blocks[:, 4]
    assert plan.blocks.shape == (len(plan.blocks), 8)
    assert start[0] == 0 and np.array_equal(start[1:], stop[:-1]) and stop[-1] == len(t_grid)
    assert np.all(stop - start <= rows)  # no block over the FFT row cap
    assert plan.lo.shape == (len(t_grid),)
    assert plan.reached.shape == (np.sum((stop - start) * width),)
    assert plan.tie_slice.shape == plan.tie_prod.shape == (plan.blocks[-1, 7],)


@given(log2_n=st.integers(1, 16), live_frac=st.sampled_from([1, 2, 8]),
       half_width=st.floats(0.5, 64.0), exponent=st.integers(-200, 200),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_unnormalized_fft_over_box_width_is_the_normalized_fft_over_h(
        log2_n, live_frac, half_width, exponent, seed):
    # _scan's exactness argument: n_eval a power of two, so pocketfft's 1/n_eval
    # scaling is exact and n_eval*h is 2*half_width exactly, for data from
    # 1e-200 to 1e200 (the quotients stay normal floats)
    n_eval = 1 << log2_n
    h = 2.0 * half_width / n_eval
    live = max(1, n_eval // (2 * live_frac))  # zero-padded between, as in the scan
    rng = np.random.default_rng(seed)
    row = np.zeros(n_eval, dtype=complex)
    for sl in (slice(0, live), slice(n_eval - live, n_eval)):
        row[sl] = (rng.standard_normal(live) + 1j * rng.standard_normal(live)) * 10.0**exponent
    want = np.fft.ifft(row) / h
    got = np.fft.ifft(row, norm="forward") / (2.0 * half_width)
    assert got.tobytes() == want.tobytes()


def test_scan_buffers_are_bounded_in_bytes():
    # the full band of 4096 points asks for a 2^16-point lattice: 1 MiB a
    # row, so a buffer of 64 time slices would hold 64 MiB
    f = band_limited(13, n=4096, top=np.inf)
    t_grid = np.linspace(-1.0, 1.0, 65)
    tracemalloc.start()
    try:
        res = _scan(f, np.array([0.3]), t_grid, PROFILE, 65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round(2.0 * f.half_width / res.lattice_step) >= 2**16
    assert peak < 2 * maximal._BLOCK_BYTES + 2**21


def shell_frequencies(k, half_width=32.0):
    """The frequency grid estimate_operator_norm builds for band k."""
    n = 2
    while np.pi * n / (2.0 * half_width) < 2.0**k:
        n *= 2
    return (np.pi / half_width) * np.arange(-n // 2, n // 2)


def shell_signal(k, seed, half_width=32.0):
    """Random P_k shell data on the grid estimate_operator_norm builds, projected by P_k."""
    xi = shell_frequencies(k, half_width)
    live = psi_k(k, xi) > 0
    rng = np.random.default_rng(seed)
    c = np.zeros(len(xi), dtype=complex)
    c[live] = rng.standard_normal(live.sum()) + 1j * rng.standard_normal(live.sum())
    return project(inverse_transform(SpectralCoefficients(half_width, c)), k)


def scaled(f, exponent):
    """f times 2^exponent, exactly."""
    return SampledSignal(f.half_width, f.values * 2.0**exponent)


def criterion_4_grid(k):
    """The scan grid of criterion 4's band k, on Omega = [0, 2^(-k/2)]."""
    return grid_for_band(2.0**k, PROFILE, make_intervals([(0.0, 2.0 ** (-k / 2))]))


def pass_tmax(f, theta_values, t_grid, dtype, x_count=65):
    """(tmax over every slice, lattice step) of f's plain-mode pass in dtype."""
    h = _scan(f, theta_values, t_grid, PROFILE, x_count).lattice_step
    c = forward_transform(f)
    phi = np.asarray(PROFILE.phi(c.frequencies), dtype=float)
    x_idx, x_snap = snapped_x(f.half_width, h, x_count)
    n_eval = round(2.0 * f.half_width / h)
    blocks = maximal._blocks(c, phi, t_grid, theta_values, h, n_eval, x_idx, x_snap, False,
                             dtype=dtype)
    slices, tmax = zip(*blocks)
    assert np.array_equal(np.concatenate(slices), np.arange(len(t_grid)))
    return np.concatenate(tmax), h


def focusing_witness(k, x0, t0, half_width=32.0):
    """P_k data whose evolution at time t0 focuses at x0: every phase
    lines up there, so |u(x0, t0)| = sum(psi_k) dxi / (2 pi)."""
    xi = shell_frequencies(k, half_width)
    lined = psi_k(k, xi) * np.exp(-1j * (x0 * xi + t0 * PROFILE.phi(xi)))
    return inverse_transform(SpectralCoefficients(half_width, lined))


def ifft_rows_by_dtype(monkeypatch):
    """A wrapped np.fft.ifft; the returned dict counts the rows it transforms, per dtype."""
    rows = {np.dtype(np.complex64): 0, np.dtype(np.complex128): 0}
    ifft = np.fft.ifft

    def counted(a, *args, **kw):
        a = np.asarray(a)
        rows[a.dtype] += a.size // a.shape[-1]
        return ifft(a, *args, **kw)

    monkeypatch.setattr(np.fft, "ifft", counted)
    return rows


class TestScreen:
    """Plain-mode scans screen every slice in complex64 and certify in
    complex128 only the slices that can hold a max; the output keeps every
    bit (TestScanMatchesReference), and these tests pin the mechanism."""

    @pytest.mark.parametrize("case", ["shell", "spike", "focus", "shell*2^600", "shell*2^-600"])
    def test_screened_maxima_lie_well_inside_the_error_bound(self, case):
        # Stated inputs on criterion 4's k=4 grid: random shell data, a unit
        # spike at x = 0 (there |u(0, 0)| = ||adj||_1, the pointwise bound's
        # worst case), a witness focusing at (x, t) = (0.3, -0.4), and shell
        # data scaled by 2^+-600.  The margin M is 2 (e(2^-24) + e(2^-53)),
        # and e(2^-53) < 2^-28 e(2^-24); so |screened - complex128| <= M/33
        # puts |screened - exact| under e(2^-24)/16.  Seen: at most 0.52
        # units of 2^-24 sqrt(n_eval) ||adj||_2 / (2 half_width), against
        # M/33 of about 10.
        k = 4
        t_grid, theta_values = criterion_4_grid(k)
        f = {"shell": lambda: shell_signal(k, 3),
             "spike": lambda: SampledSignal(32.0, np.eye(1, 512, 256)[0]),
             "focus": lambda: focusing_witness(k, 0.3, -0.4),
             "shell*2^600": lambda: scaled(shell_signal(k, 4), 600),
             "shell*2^-600": lambda: scaled(shell_signal(k, 5), -600)}[case]()
        screened, h = pass_tmax(f, theta_values, t_grid, np.complex64)
        exact, _ = pass_tmax(f, theta_values, t_grid, complex)
        n_eval = round(2.0 * f.half_width / h)
        margin = maximal._screen_margin(forward_transform(f).coeffs, n_eval, f.half_width)
        assert np.max(np.abs(screened - exact)) <= margin / 33

    def test_few_slices_reach_the_complex128_fft(self, monkeypatch):
        # criterion 4's k=4 grid: every slice is screened, at most 10% certified
        t_grid, theta_values = criterion_4_grid(4)
        f = shell_signal(4, 11)
        want = reference_scan(f, theta_values, t_grid, PROFILE, 65)
        rows = ifft_rows_by_dtype(monkeypatch)
        res = _scan(f, theta_values, t_grid, PROFILE, 65)
        assert rows[np.dtype(np.complex64)] == len(t_grid) == 2049
        assert 0 < rows[np.dtype(np.complex128)] <= 0.1 * len(t_grid)
        assert_matches_reference(res, want, None)

    def test_mirror_slices_tie_and_both_are_kept(self):
        # real data, theta = 0: |u(x, -t)| = |u(x, t)|, so every max is
        # attained at t and -t up to rounding, far inside the margin; the
        # certify pass must see both to pick the first (or the larger)
        f = shell_signal(3, 6)
        f = SampledSignal(f.half_width, f.values.real)
        t_grid, theta_values = grid_for_band(8.0, PROFILE, make_points([0.0]))
        want = reference_scan(f, theta_values, t_grid, PROFILE, 65)
        exact, _ = pass_tmax(f, theta_values, t_grid, complex)
        t_arg, x_pos = want[1], np.arange(65)
        mirror = len(t_grid) - 1 - t_arg
        assert np.allclose(exact[mirror, x_pos], exact[t_arg, x_pos], rtol=1e-12, atol=0.0)
        assert_matches_reference(_scan(f, theta_values, t_grid, PROFILE, 65), want, None)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf, 2.0**-1000, 2.0**1000])
    def test_data_the_screen_cannot_bound_is_not_screened(self, fill):
        # zero, non-finite or extreme data: no margin, every slice is certified
        coeffs = np.zeros(64, dtype=complex)
        coeffs[5] = fill
        assert maximal._screen_margin(coeffs, 1024, 8.0) is None
        coeffs[5] = 1.0
        assert maximal._screen_margin(coeffs, 1024, 8.0) > 0.0

    def test_zero_data_runs_only_the_complex128_pass(self, monkeypatch):
        f = SampledSignal(8.0, np.zeros(64, dtype=complex))
        theta_values, t_grid = np.linspace(0.0, 1.0, 30), np.linspace(-1.0, 1.0, 129)
        rows = ifft_rows_by_dtype(monkeypatch)
        res = _scan(f, theta_values, t_grid, PROFILE, 65)
        assert rows[np.dtype(np.complex64)] == 0 and rows[np.dtype(np.complex128)] == 129
        assert np.all(res.values == 0.0) and np.all(res.t_arg == 0)

    @pytest.mark.parametrize("case", ["criterion-4-k4", "cantor-depth-8"])
    def test_pairs_hold_every_argmax_and_only_their_cells_are_read(self, case, monkeypatch):
        # the screen hands _certify (slice, x) pairs, not whole slices: each
        # x's argmax slice is marked at that x, and _certify reads n_theta
        # cells per marked pair, counted by _cell_index
        if case == "criterion-4-k4":
            (t_grid, theta_values), f, x_count = criterion_4_grid(4), shell_signal(4, 11), 65
        else:  # 512 directions
            f, x_count = band_limited(15, half_width=8.0, n=64, top=4.0), 17
            t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                                 make_cantor(2, 1.0 / 3.0, 8))
        want = reference_scan(f, theta_values, t_grid, PROFILE, x_count)
        calls, certify = [], maximal._certify
        monkeypatch.setattr(maximal, "_certify", lambda *a: calls.append(a) or certify(*a))
        assert_matches_reference(_scan(f, theta_values, t_grid, PROFILE, x_count), want, None)
        (args,) = calls
        kept, marked = args[-2:]
        assert marked.shape == (len(kept), x_count) and len(kept) < len(t_grid)
        assert np.all(np.isin(want[1], kept))
        assert marked[np.searchsorted(kept, want[1]), np.arange(x_count)].all()

        cells, cell_index = [], maximal._cell_index
        monkeypatch.setattr(maximal, "_cell_index",
                            lambda prod, x, *a: cells.append(np.broadcast(prod, x).size)
                            or cell_index(prod, x, *a))
        got = certify(*args)
        assert sum(cells) == np.count_nonzero(marked) * len(theta_values)
        assert all(np.array_equal(a, b) for a, b in zip(got, want[:3]))

    @pytest.mark.parametrize("exponent", [-600, 600])
    @pytest.mark.parametrize("levels", [None, [0.75, 0.3]], ids=["plain", "levels"])
    def test_data_far_from_unit_size_scans_exactly(self, exponent, levels):
        # _blocks' exactness claim for data from 1e-200 to 1e200, through
        # the whole scan; plain mode also runs the screen's float32 scaling
        f = scaled(band_limited(14, half_width=12.0), exponent)
        t_range = 1.0 if levels is None else levels[0]
        t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), PROFILE,
                                             make_intervals([(-0.5, 1.0)]), t_range=t_range)
        n_eval = round(2.0 * f.half_width / _scan(f, theta_values, t_grid, PROFILE, 65).lattice_step)
        assert maximal._screen_margin(forward_transform(f).coeffs, n_eval, f.half_width) is not None
        TestScanMatchesReference().check(f, theta_values, t_grid,
                                         r_levels=None if levels is None else np.array(levels))


def snapped_x(half_width, h, x_count=65):
    """The scan's x-lattice: indices and snapped points of the x-grid on I."""
    ideal = -1.0 + (np.arange(x_count) + 0.5) * (2.0 / x_count)
    x_idx = np.round((ideal + half_width) / h).astype(np.int64)
    return x_idx, x_idx * h - half_width


def cell_offsets(t, theta_values, half_width, h):
    """Each (t, x, theta) cell's lattice index minus x_idx, by the per-cell
    formula of reference_scan."""
    x_idx, x_snap = snapped_x(half_width, h)
    idx = np.round(
        (x_snap[None, :, None] + t[:, None, None] * theta_values[None, None, :] + half_width) / h
    ).astype(np.int64)
    return idx - x_idx[None, :, None]


class TestLatticeWindows:
    """Off a near tie every x reads the same direction offset, and every
    cell's offset lies in the window the scan builds for its time slice."""

    def check(self, t, theta_values, half_width, h):
        cell = cell_offsets(t, theta_values, half_width, h)
        prod = t[:, None] * theta_values[None, :]
        offset, near_tie, lo, width = maximal._direction_offsets(prod, h)
        off = ~np.broadcast_to(near_tie[:, None, :], cell.shape)
        assert np.array_equal(cell[off], np.broadcast_to(offset[:, None, :], cell.shape)[off])
        assert np.all(cell >= lo[:, None, None])
        assert np.all(cell < (lo + width)[:, None, None])
        # rows without a near tie: the window is no wider than its offsets
        clean = ~near_tie.any(axis=1)
        assert np.array_equal(lo[clean], offset[clean].min(axis=1))
        assert np.array_equal((lo + width - 1)[clean], offset[clean].max(axis=1))
        return near_tie

    @pytest.mark.parametrize("half_width, theta_values", [
        (12.0, make_cantor(2, 1.0 / 3.0, 3).sample(4)),
        (1.3, np.linspace(-1.0, 1.0, 31)),
        (0.6, np.array([0.9])),
        (32.0, np.array([0.7, -0.35, 0.0, 0.123456789, -1.0])),  # unsorted
    ], ids=["cantor", "interval-wrapping", "point-wrapping", "unsorted"])
    def test_offsets_lie_in_the_window(self, half_width, theta_values):
        h = 2.0 * half_width / 4096 * 0.987654321  # not a power of two
        self.check(np.linspace(-1.0, 1.0, 2001), theta_values, half_width, h)

    @given(half_width=st.floats(0.5, 64.0), n_eval=st.integers(16, 1 << 16),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_offset_is_the_cell_index_off_near_ties(self, half_width, n_eval, seed):
        # h is a power of two only by accident; directions put t*theta/h at
        # k + 1/2 + d, from just inside the margin to far outside it
        h = 2.0 * half_width / n_eval
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.5, 1.0, 24) * rng.choice([-1.0, 1.0], 24)
        k = rng.integers(-int(0.5 / h), int(0.5 / h) + 1, 24)
        d = rng.choice([0.0, 5e-7, -5e-7, 2e-6, -2e-6, 1e-5, -1e-5, 1e-3, 0.25], 24)
        theta_values = np.concatenate([(k + 0.5 + d) * h / np.abs(t), rng.uniform(-1.0, 1.0, 8)])
        near_tie = self.check(t, theta_values, half_width, h)
        q = t[:, None] * theta_values[None, :] / h
        off_half = np.abs(np.abs(q - np.round(q)) - 0.5)
        assert np.all(near_tie[off_half < 0.9 * maximal._TIE_MARGIN])
        assert not np.any(near_tie[off_half > 1.1 * maximal._TIE_MARGIN])

    def test_scan_refuses_lattices_too_fine_for_float_indices(self):
        # |t*theta|/h near 2^30 lattice steps: the offset's rounding error
        # bound would reach the near-tie margin
        f = band_limited(13, half_width=8.0, n=64, top=4.0)
        with pytest.raises(RangeError, match="too fine"):
            _scan(f, np.array([1.0]), np.array([-1e9, 0.0, 1e9]), PROFILE, 65)


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

    @pytest.mark.parametrize("q", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_q(self, q):
        # q = inf passed the check and returned (sum * dx) ** 0 = 1.0 for any data
        with pytest.raises(ConfigError, match="must be finite and at least 1"):
            lq_norm(np.array([0.5, 3.0]), q)


class TestOperatorNorm:
    def test_deterministic_and_positive(self):
        est1 = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=3, seed=0)
        est2 = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=3, seed=0)
        assert est1.value == est2.value
        assert est1.value > 0
        assert est1.method in ("randomFamily", "alternatingMax")

    def test_more_trials_do_not_hurt_the_random_stage(self, monkeypatch):
        monkeypatch.setattr(maximal, "_MAX_ROUNDS", 0)
        few = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=2, seed=1)
        many = estimate_operator_norm(2, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=5, seed=1)
        assert many.value >= few.value - 1e-12

    def test_refinement_dominates_random_stage(self, monkeypatch):
        monkeypatch.setattr(maximal, "_MAX_ROUNDS", 0)
        raw = estimate_operator_norm(3, (0.0, 0.0), 2.0, 0.5, PROFILE, trials=2, seed=0)
        monkeypatch.undo()
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

    @pytest.mark.parametrize("k, sigma", [(4, 0.5), (2, np.nan)], ids=["wide", "nan-sigma"])
    def test_rejects_wide_interval(self, k, sigma):
        # a NaN sigma made the width check compare False, and the estimate ran
        with pytest.raises(ConfigError, match="violates the hypothesis"):
            estimate_operator_norm(k, (0.0, 0.5), 2.0, sigma, PROFILE, trials=1)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            estimate_operator_norm(2, (0.0, 0.0), 8.0, 0.5, PROFILE)

    @pytest.mark.parametrize("k, omega, message", [
        (2.5, (0.0, 0.4), "k=2.5 must be an integer"),
        (31, (0.0, 0.0), r"band index 31 outside \[1, 30\]"),
        (0, (0.0, 0.4), r"band index 0 outside \[1, 30\]"),
        (2, (0.0, 0.4, 9), r"omega=\(0.0, 0.4, 9\) must be one interval"),
        (2, (0.0,), r"omega=\(0.0,\) must be one interval"),
    ], ids=["half-band", "band-31", "band-0", "triple", "single"])
    def test_rejects_band_and_interval_before_the_grid(self, k, omega, message, monkeypatch):
        # k=2.5 returned 0.9173 on a non-dyadic shell, k=31 raised RangeError
        # from the grid, and a triple omega returned 0.7632 on its first two
        def refuse(*args, **kw):
            raise AssertionError("the grid was built before the check")

        monkeypatch.setattr(maximal, "grid_for_band", refuse)
        with pytest.raises(ConfigError, match=message):
            estimate_operator_norm(k, omega, 2.0, 0.5, PROFILE, trials=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": 0}, "trials=0 and x_count=65 must be at least 1"),
        ({"x_count": 0}, "trials=6 and x_count=0 must be at least 1"),
        ({"half_width": 0.5}, "no frequency of the grid .* lies in the P_2 shell"),
    ], ids=["no-trials", "no-x-points", "empty-shell"])
    def test_rejects_settings_that_leave_nothing_to_scan(self, kwargs, message, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a scan ran before the check")

        monkeypatch.setattr(maximal, "_scan", refuse)
        with pytest.raises(ConfigError, match=message):
            estimate_operator_norm(2, (0.0, 0.5), 2.0, 0.5, PROFILE, **kwargs)


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

    @pytest.mark.parametrize("pairs, message", [
        *(([(1, 1.0), (2, bad), (3, 2.0)], "values must be finite and positive")
          for bad in (0.0, -1.0, np.nan, np.inf, -np.inf)),
        # a NaN k printed LAPACK "illegal value" lines, then raised LinAlgError
        *(([(bad, 1.0), (2, 2.0), (3, 3.0)], "^k values must be finite$")
          for bad in (np.nan, np.inf, -np.inf)),
    ], ids=["0.0", "-1.0", "nan", "inf", "-inf", "k-nan", "k-inf", "k--inf"])
    def test_needs_positive_values(self, pairs, message):
        with pytest.raises(ConfigError, match=message):
            fit_scaling_exponent(pairs)


class TestLowFrequency:
    def test_ratio_is_uniformly_bounded(self):
        theta = make_intervals([(-0.5, 0.5)])
        ratios = []
        for seed in range(20):
            f = band_limited(seed, top=4.0)
            num = lq_norm(maximal_function(project(f, 0), theta, PROFILE).values, 2.0)
            c = forward_transform(f)
            ratios.append(num / (np.sum(psi0(c.frequencies) * np.abs(c.coeffs)) * c.freq_step))
        ratios = np.array(ratios)
        # lq(M P0 f) <= 2^(1/q) sup|P0 f| <= 2^(1/q)/(2 pi) * int psi0 |fhat|
        assert ratios.max() <= 2.0**0.5 / (2.0 * np.pi) + 1e-12
        assert ratios.max() / ratios.min() < 10.0
