"""Grid computation of the directional maximal function and operator-norm probes.

The scan walks a uniform t-grid; for each time slice the evolved signal is
synthesized on a refined evaluation lattice (trigonometric interpolation by
spectral zero padding) and the points x + t*theta are snapped to that
lattice, so no interpolation error enters beyond the quarter-wavelength
resolution rule:

    t-step     <= (1/4) / max |Phi|   over the band of f,
    theta-step <= (1/4) / band,
    lattice    <= (1/4) / band.

The scan does only the work it reads, and it splits into a plan and a pass.
A cell's lattice index splits into an x part and a direction part:
x_idx + rint(t*theta/h), exactly, unless t*theta/h lies within a
rounding-error margin of a half-integer (see _scan for the bound).  So a
time slice's directions reach only a few distinct offsets, the same for
every x.

- The plan (_ScanPlan) depends on the grid alone: per time slice its
  window of offsets and the offsets it reaches, the rare near-tie pairs,
  and the blocks of slices with their lattice spans.  It holds nothing per
  x, and a one-entry memo keeps it, so every scan of one band in
  estimate_operator_norm, and back-to-back scans of one grid, build it
  once.
- The pass runs per signal, one block at a time.  It synthesizes the
  block's time slices with one unnormalized inverse FFT, builds the values
  |u/h - f(x)| in convergence mode and |u/h| otherwise over each slice's
  window (in plain mode from |u/h| taken once per lattice column), and
  takes the max over the offsets the slice reaches.  The near-tie pairs,
  and the theta argmax of a row that beats the best so far, use the
  per-cell index.

Every value goes through the elementwise steps a cell would, so the output
bits are those of a cell-by-cell scan.

Operator-norm estimates are witnessed by a concrete f, produced either by
random shell data or by an alternating maximization (fix the per-x argmax,
one power-iteration step on the linearized normal operator, re-project to
the shell).  The value is the witnessed ratio on the x-lattice (a Riemann
sum for the L^q(I) norm), not yet a certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .directions import DirectionSet, _fit_line, make_intervals
from .errors import MAX_COUNT, ConfigError, RangeError, check_half_width, check_integers, check_seed
from .filters import project, psi_k
from .spectral import (
    DispersionProfile,
    SampledSignal,
    SpectralCoefficients,
    _alternating_sign,
    forward_transform,
    inverse_transform,
)

_PHASE_BUDGET = 0.25  # max phase change (radians) per grid step in t, theta, x
_BLOCK_BYTES = 1 << 21  # per block of time slices: its FFT rows (16 B a lattice point), its window values (32 B)
_TIE_MARGIN = 1e-6  # t*theta/h this near a half-integer takes the per-cell index (see _scan)
_MAX_ROUNDS = 20  # alternating-maximization rounds per operator-norm estimate


@dataclass(frozen=True)
class MaximalResult:
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    t_arg: np.ndarray = field(repr=False)
    theta_arg: np.ndarray = field(repr=False)
    lattice_step: float
    # (n_levels, x_count) maxima over |t| <= r, for a scan given r_levels
    level_max: np.ndarray | None = field(default=None, repr=False)


def grid_for_band(
    band: float,
    profile: DispersionProfile,
    theta: DirectionSet,
    t_range: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(t_grid, theta_values): the coarsest scan grid meeting the resolution rule.

    This is the only place a scan grid is built, so every scan meets the rule.
    Raises RangeError, before sampling, where the rule asks for more than
    MAX_COUNT points in t or in theta (summed over theta's components).
    """
    if not 0.0 < t_range < np.inf:
        raise ConfigError(f"t_range must lie in (0, inf), got {t_range}")
    if not 0.0 <= band < np.inf:  # a zero signal has band 0
        raise ConfigError(f"band must lie in [0, inf), got {band}")
    pm = float(np.max(np.abs(profile.phi(np.linspace(0.0, band, 1025)))))
    t_step = _PHASE_BUDGET / pm if pm > 0 else 2.0 * t_range
    widest = np.diff(theta.components, axis=1).max()
    th_step = _PHASE_BUDGET / band if band > 0 else np.inf
    t_steps, th_steps = 2.0 * t_range / t_step, widest / th_step
    for axis, steps in (("t", t_steps), ("theta", th_steps)):
        if not steps < MAX_COUNT:
            raise RangeError(f"the resolution rule asks for {steps:.3g} {axis} steps "
                             f"at band {band:g}, more than {MAX_COUNT}")
    per_component, n_components = int(np.ceil(th_steps)) + 1, len(theta.components)
    if n_components * per_component > MAX_COUNT:
        raise RangeError(f"the resolution rule asks for {per_component} theta samples on each of "
                         f"{n_components} components at band {band:g}, more than {MAX_COUNT}")
    nt = int(np.ceil(t_steps)) + 1
    if nt % 2 == 0:  # odd so that t = 0 is on the grid
        nt += 1
    return np.linspace(-t_range, t_range, max(nt, 3)), theta.sample(per_component)


def _cell_index(prod, x, half_width, h):
    """rint((x + t*theta + half_width) / h) as int64, given prod = t*theta.

    The lattice index of scan cell (t, x, theta); prod and x broadcast.
    """
    pos = np.add(prod, x)
    pos += half_width
    pos /= h
    return np.rint(pos, out=pos).astype(np.int64)


def _direction_offsets(prod, h):
    """(offset, near_tie, lo, width) of the (t, theta) pairs, given prod = t*theta.

    offset = rint(t*theta/h) per pair.  Off a near tie, cell (t, x, theta)
    reads lattice index x_idx + offset for every x (see _scan); a near-tie
    pair's t*theta/h lies within _TIE_MARGIN of a half-integer, and its cells
    take _cell_index, which lands one either side of offset.  Per time slice
    the window [lo, lo + width) of offsets holds both.
    """
    q = prod / h
    offset = np.rint(q)
    near_tie = np.abs(q - offset) > 0.5 - _TIE_MARGIN
    offset = offset.astype(np.int64)
    lo = (offset - near_tie).min(axis=1)
    return offset, near_tie, lo, (offset + near_tie).max(axis=1) - lo + 1


@dataclass(frozen=True)
class _ScanPlan:
    """What a scan reads that depends on its grid alone (see _scan).

    blocks has one row per block of time slices: the slices [start, stop),
    the lattice span [s0, s1), the window width, where the block's
    (slices, width) mask of reached offsets starts in reached, and its
    near-tie pairs [tie_lo, tie_hi).  Per time slice, lo is the lowest
    offset of its window and first the flat position of (slice, lo) in its
    block's span.  Per near-tie pair, in slice order, tie_slice is its time
    slice and tie_prod its t*theta.  No array has an x axis, so a plan stays
    small next to the scan's FFT buffers.
    """

    blocks: np.ndarray
    lo: np.ndarray
    first: np.ndarray
    reached: np.ndarray
    tie_slice: np.ndarray
    tie_prod: np.ndarray


def _build_plan(t_grid, theta_values, h, x_idx, rows) -> _ScanPlan:
    """The _ScanPlan of a grid, lattice step h, x lattice x_idx and row cap.

    Each block takes the longest run of the next rows time slices whose
    windows, at the run's widest, hold at most _BLOCK_BYTES // 32 values
    (one slice, if a slice holds more).
    """
    x_lo, x_hi = int(x_idx.min()), int(x_idx.max())
    lo_all = np.empty(len(t_grid), dtype=np.int64)
    first_all = np.empty(len(t_grid), dtype=np.int64)
    blocks, reached, tie_slice, tie_prod = [], [], [], []
    start = n_reached = n_ties = 0
    cols = _BLOCK_BYTES // (32 * len(x_idx))  # a block's window values per x
    while start < len(t_grid):
        # No more slices fit than the first one's window allows.
        w0 = _direction_offsets(t_grid[start : start + 1, None] * theta_values[None, :], h)[3][0]
        prod = t_grid[start : start + min(rows, max(1, cols // w0)), None] * theta_values[None, :]
        offset, tie, lo, widths = _direction_offsets(prod, h)
        widest = np.maximum.accumulate(widths)
        nb = max(1, int(np.count_nonzero(np.arange(1, len(lo) + 1) * widest <= cols)))
        offset, tie, lo, width = offset[:nb], tie[:nb], lo[:nb], int(widest[nb - 1])
        stop, rows_b = start + nb, np.arange(nb)
        lo_all[start:stop] = lo
        s0, s1 = x_lo + int(lo.min()), x_hi + int(lo.max()) + width
        first_all[start:stop] = rows_b * (s1 - s0) + lo - s0
        # Near-tie pairs mark a spare column, which is dropped.
        mask = np.zeros((nb, width + 1), dtype=bool)
        mask[rows_b[:, None], np.where(tie, width, offset - lo[:, None])] = True
        reached.append(mask[:, :width].ravel())
        ti, tj = np.nonzero(tie)
        tie_slice.append(start + ti)
        tie_prod.append(prod[ti, tj])
        blocks.append((start, stop, s0, s1, width, n_reached, n_ties, n_ties + len(ti)))
        n_reached += nb * width
        n_ties += len(ti)
        start = stop
    return _ScanPlan(blocks=np.array(blocks, dtype=np.int64), lo=lo_all, first=first_all,
                     reached=np.concatenate(reached), tie_slice=np.concatenate(tie_slice),
                     tie_prod=np.concatenate(tie_prod))


_plan_memo = {}  # one entry: the plan of the grid scanned last, under its key


def _scan_plan(t_grid, theta_values, h, half_width, x_idx, rows) -> _ScanPlan:
    """The memoized _ScanPlan, keyed on the grid, the lattice, the block budget
    and the near-tie margin.

    Every scan of one band in estimate_operator_norm, and back-to-back scans
    of one grid, share one plan; a scan of another grid replaces it.
    """
    key = (t_grid.tobytes(), theta_values.tobytes(), h, half_width, x_idx.tobytes(), rows,
           _BLOCK_BYTES, _TIE_MARGIN)
    plan = _plan_memo.get(key)
    if plan is None:
        _plan_memo.clear()
        plan = _plan_memo[key] = _build_plan(t_grid, theta_values, h, x_idx, rows)
    return plan


def _scan(
    f: SampledSignal,
    theta_values: np.ndarray,
    t_grid: np.ndarray,
    profile: DispersionProfile,
    x_count: int,
    r_levels: np.ndarray | None = None,
) -> MaximalResult:
    """Shared sweep over (t, theta); returns per-x maxima with argmax data.

    Given r_levels (descending), the scanned quantity is
    |u(x+t*theta, t) - f(x)| and level_max holds the per-x maxima
    restricted to |t| <= r for each level.

    The pass is one loop over the plan's blocks of time slices.  A block
    holds at most max(1, _BLOCK_BYTES // (16 * n_eval)) slices, the rows of
    its one inverse FFT, in two buffers allocated once per scan: a
    zero-padded input whose live slices [0, n/2) and [n_eval - n/2, n_eval)
    are overwritten per block (the padding between them stays zero), and
    the FFT output.  In convergence mode f(x) is first synthesized from row
    0 of the padded input, with the unit multiplier of t = 0.  No bit
    depends on where a block starts: the e^{it Phi} recurrence is one chain
    carried across blocks, the FFT transforms each row alone, and a max or
    a first-occurrence argmax does not depend on the partition.

    The FFT runs unnormalized (norm="forward"), and the scan divides each
    value it reads by 2*half_width, where the normalized FFT scales the
    whole row by 1/n_eval in a pass of its own and the value is then
    divided by h.  The bits agree.  n_eval is a power of two, so the
    1/n_eval scaling is exact and n_eval*h is 2*half_width exactly.  numpy
    divides a complex by a real by multiplying both parts by the rounded
    reciprocal, and fl(1/(n_eval*h)) = fl(1/h)/n_eval exactly; so both
    ways round the same real number, once.  This needs every value, and
    every value over n_eval, to stay a normal float (above 2^-1022, below
    2^1024); data from 1e-200 to 1e200 stays far inside.

    Cell (t, x, theta) reads lattice index rint((x + t*theta + half_width) / h)
    modulo n_eval (_cell_index).  With x = x_idx*h - half_width that index is
    x_idx + J(t, theta), J = rint(t*theta/h), unless t*theta/h lies within
    _TIE_MARGIN of a half-integer.  The margin is sized by the rounding
    error: the cell's index takes five correctly rounded steps (x_idx*h,
    - half_width, + t*theta, + half_width, / h) and t*theta/h one, each
    off by at most 2^-53 * M lattice steps, with M the size of the largest
    number involved, M < (max|x| + half_width + max|t*theta|) / h + 1.  So
    the two index values differ by less than 7 * 2^-53 * M, about 1e-10
    for the lattices the scans use, and _TIE_MARGIN = 1e-6 lies far above
    that (the scan refuses M >= 2^30, where the bound reaches 1e-6) and far
    below 1/2.  Off the margin the two round alike, so the offset does not
    depend on x.  On it, rint rounds half to even and the index depends on
    the parity of x_idx: such near-tie pairs take the per-cell expression.

    So per time slice only the distinct offsets D(t) of its directions are
    read.  Each block of time slices builds the values of the window
    [lo(t), lo(t) + width) of offsets around each x: |u/h - f(x)| in
    convergence mode, |u/h| otherwise.  The window holds every offset of
    the slice, and one more on each side of a near-tie pair's.  The block
    holds at most _BLOCK_BYTES // 32 window values (one slice, if a slice
    holds more), of 16 B of temporaries each, 32 B with f(x).  Its lattice
    span is wrapped around the periodic box once, on its column indices, so
    no cell takes an index modulo n_eval.
    What depends on the grid alone (offsets, windows, reached masks,
    near-tie pairs, blocks and spans) is the _ScanPlan, built once per grid;
    the pass per signal reads it.  In plain mode the pass takes |u/h| once
    per lattice column of the span and gathers the window values from
    those.  Then, per (t, x):

    - tmax is the max of the window values at the offsets in D(t), off
      near-tie pairs (a masked max), raised by the values the near-tie
      pairs read;
    - the first t of the block attaining the max of tmax is the candidate;
      where it beats the best so far, the theta argmax re-reads that one
      row's cells by _cell_index and takes the first theta attaining it.

    The result is bit for bit that of a scan that gathers u at every cell
    and computes |u/h - f(x)| there: every window value goes through the
    same elementwise operations in the same order (gather, divide by h,
    subtract f(x), abs), each cell's value is the window value at its
    index, and a max does not depend on the order it visits its values.
    The first t, then the first theta in that row, is the same first
    occurrence as an argmax over the flattened (t, theta) pairs.
    """
    subtract = r_levels is not None
    c = forward_transform(f)
    band = c.band_limit()
    half_width = f.half_width
    step_target = _PHASE_BUDGET / band if band > 0 else f.grid_step
    n_eval = f.n
    while 2.0 * half_width / n_eval > step_target:
        n_eval *= 2
    h = 2.0 * half_width / n_eval
    scale = 2.0 * half_width  # n_eval * h, see above

    n = f.n
    half = n // 2
    adj = _alternating_sign(n) * c.coeffs
    phi = np.asarray(profile.phi(c.frequencies), dtype=float)

    ideal = -1.0 + (np.arange(x_count) + 0.5) * (2.0 / x_count)
    x_idx = np.round((ideal + half_width) / h).astype(np.int64)
    x_snap = x_idx * h - half_width

    reach = np.max(np.abs(t_grid)) * np.max(np.abs(theta_values))
    if (np.max(np.abs(x_snap)) + half_width + reach) / h + 1 >= 2.0**30:
        raise RangeError(f"a scan lattice of step {h:g} over |x| <= {half_width:g} is too fine "
                         "for exact float index arithmetic")

    best = np.full(x_count, -1.0)
    best_t = np.zeros(x_count, dtype=np.int64)
    best_th = np.zeros(x_count, dtype=np.int64)
    level_max = np.zeros((len(r_levels), x_count)) if subtract else None

    cur = np.exp(1j * t_grid[0] * phi)
    dt = t_grid[1] - t_grid[0] if len(t_grid) > 1 else 0.0
    step_mult = np.exp(1j * dt * phi)

    rows = min(len(t_grid), max(1, _BLOCK_BYTES // (16 * n_eval)))
    plan = _scan_plan(t_grid, theta_values, h, half_width, x_idx, rows)
    coeff = np.empty((rows, n), dtype=complex)
    padded = np.zeros((rows, n_eval), dtype=complex)
    fields = np.empty((rows, n_eval), dtype=complex)
    if subtract:  # f(x), the field at t = 0, from row 0 of the padded input
        padded[0, n_eval - half :], padded[0, :half] = adj[:half], adj[half:]
        f0 = np.fft.ifft(padded[0], norm="forward")[x_idx % n_eval] / scale
    x_pos = np.arange(x_count)
    # The lattice column of (offset - lo, x) relative to lo, for the widest window.
    window_cols = np.arange(plan.blocks[:, 4].max())[:, None] + x_idx

    coeff_rows = list(coeff)
    for start, stop, s0, s1, width, r0, tie_lo, tie_hi in plan.blocks.tolist():
        nb = stop - start
        coeff[0] = cur
        for i in range(1, nb):
            np.multiply(coeff_rows[i - 1], step_mult, out=coeff_rows[i])
        cur = coeff[nb - 1] * step_mult
        np.multiply(coeff[:nb, :half], adj[:half], out=padded[:nb, n_eval - half :])
        np.multiply(coeff[:nb, half:], adj[half:], out=padded[:nb, :half])
        np.fft.ifft(padded[:nb], axis=1, norm="forward", out=fields[:nb])
        lo = plan.lo[start:stop]

        # The block's lattice span [s0, s1), wrapped around the periodic box, as u/h.
        span = np.take(fields[:nb], np.arange(s0, s1), axis=1, mode="wrap")
        span /= scale

        # The window values per (t, offset - lo, x): they depend on x
        # through the lattice point, and through f(x) in convergence mode.
        cols = plan.first[start:stop, None, None] + window_cols[:width]
        if subtract:
            g = span.take(cols)
            g -= f0
            vals = np.abs(g)
        else:
            vals = np.abs(span).take(cols)

        reached = plan.reached[r0 : r0 + nb * width].reshape(nb, width, 1)
        tmax = vals.max(axis=1, where=reached, initial=-1.0)
        if tie_hi > tie_lo:
            ti = plan.tie_slice[tie_lo:tie_hi] - start
            idx = _cell_index(plan.tie_prod[tie_lo:tie_hi, None], x_snap, half_width, h)
            np.maximum.at(tmax, ti, vals[ti[:, None], idx - x_idx - lo[ti][:, None], x_pos])

        arg_t = tmax.argmax(axis=0)
        cand = tmax[arg_t, x_pos]
        upd = np.flatnonzero(cand > best)
        if len(upd):
            tu = arg_t[upd]
            prod = t_grid[start + tu, None] * theta_values[None, :]
            idx = _cell_index(prod, x_snap[upd, None], half_width, h)
            w = idx - (x_idx[upd] + lo[tu])[:, None]
            best[upd] = cand[upd]
            best_t[upd] = start + tu
            best_th[upd] = vals[tu[:, None], w, upd[:, None]].argmax(axis=1)

        if subtract:
            abs_t = np.abs(t_grid[start:stop])
            for li, r in enumerate(r_levels):
                sel = abs_t <= r * (1 + 1e-12)
                if sel.any():
                    level_max[li] = np.maximum(level_max[li], tmax[sel].max(axis=0))

    return MaximalResult(x=x_snap, values=best, t_arg=best_t, theta_arg=best_th,
                         lattice_step=h, level_max=level_max)


def _check_x_count(x_count) -> None:
    """Refuse an x_count that is not an integer of at least 1, before the grid is built."""
    check_integers(x_count=x_count)
    if x_count < 1:
        raise ConfigError(f"x_count={x_count} must be at least 1")


def maximal_function(
    f: SampledSignal,
    theta: DirectionSet,
    profile: DispersionProfile,
    x_count: int = 65,
) -> MaximalResult:
    """Per-x supremum of |S_t f(x + t*theta)| over the grid for f's band limit."""
    _check_x_count(x_count)
    t_grid, theta_values = grid_for_band(forward_transform(f).band_limit(), profile, theta)
    return _scan(f, theta_values, t_grid, profile, x_count)


def convergence_scan(
    f: SampledSignal,
    theta: DirectionSet,
    profile: DispersionProfile,
    r_levels,
    x_count: int = 65,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-x sup of |S_t f(x+t*theta) - f(x)| over |t| <= r for each level.

    Levels are sorted descending and share one nested t-grid, so the per-x
    suprema are monotone in r by construction.  Returns (levels, sup_matrix)
    with sup_matrix of shape (n_levels, x_count).
    """
    _check_x_count(x_count)
    r_levels = np.sort(np.asarray(r_levels, dtype=float))[::-1]
    if not (r_levels.size and r_levels[0] <= 1.0 and r_levels[-1] > 0.0):  # NaN lands first
        raise ConfigError("scales must lie in (0, 1] and be nonempty")
    band = forward_transform(f).band_limit()
    t_grid, theta_values = grid_for_band(band, profile, theta, t_range=float(r_levels[0]))
    return r_levels, _scan(f, theta_values, t_grid, profile, x_count, r_levels=r_levels).level_max


def lq_norm(values: np.ndarray, q: float) -> float:
    """Riemann-sum L^q norm over I = (-1, 1) on a uniform grid."""
    if not 1.0 <= q < np.inf:
        raise ConfigError(f"q={q} must be finite and at least 1")
    values = np.abs(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ConfigError("the L^q norm needs at least one value")
    dx = 2.0 / len(values)
    return float((np.sum(values**q) * dx) ** (1.0 / q))


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "randomFamily" or "alternatingMax"


def estimate_operator_norm(
    k: int,
    omega: tuple,
    q: float,
    sigma: float,
    profile: DispersionProfile,
    trials: int = 6,
    seed: int = 0,
    half_width: float = 32.0,
    x_count: int = 65,
) -> NormEstimate:
    """Lower-bound estimate of || M_Omega P_k ||_{L^2 -> L^q(I)}.

    Takes the max of the witnessed ratio lq(M(P_k f)) / ||f||_2 over random
    shell data and an alternating-maximization refinement of the best trial.
    lq is a Riemann sum over the x-lattice, so the value is not yet certified.
    """
    if not 2.0 <= q <= 4.0:
        raise ConfigError(f"q={q} outside [2, 4], the range of the norm estimator")
    check_integers(trials=trials, x_count=x_count)
    if trials < 1 or x_count < 1:
        raise ConfigError(f"trials={trials} and x_count={x_count} must be at least 1")
    check_seed(seed)
    check_half_width(half_width)
    lo, hi = float(omega[0]), float(omega[1])
    width = hi - lo
    if not width <= 2.0 ** (-sigma * k) * (1 + 1e-9):  # NaN sigma fails too
        raise ConfigError(
            f"interval width {width:g} violates the hypothesis |Omega| <= 2^(-sigma*k) = {2.0 ** (-sigma * k):g}"
        )
    theta = make_intervals([(lo, hi)])

    band = 2.0**k
    n = 2
    while np.pi * n / (2.0 * half_width) < band:
        n *= 2
    t_grid, theta_values = grid_for_band(band, profile, theta)

    template = SpectralCoefficients(half_width, np.zeros(n, dtype=complex))
    xi = template.frequencies
    shell = psi_k(k, xi)
    live = shell > 0
    dxi = template.freq_step
    phi_live = np.asarray(profile.phi(xi[live]), dtype=float)
    xi_live = xi[live]
    shell_live = shell[live]
    n_live = int(live.sum())
    if n_live == 0:
        raise ConfigError(f"no frequency of the grid of step pi/half_width = {dxi:g} lies in "
                          f"the P_{k} shell; half_width={half_width:g} is too small")

    def shell_signal(c_live: np.ndarray) -> SampledSignal:
        full = np.zeros(n, dtype=complex)
        full[live] = c_live
        return inverse_transform(SpectralCoefficients(half_width, full))

    def witness_ratio(f: SampledSignal):
        g = project(f, k)
        res = _scan(g, theta_values, t_grid, profile, x_count)
        return lq_norm(res.values, q) / f.l2_norm(), res

    root = np.random.default_rng(seed)
    trial_seeds = root.integers(0, 2**63 - 1, size=trials)
    best_val, best_f, best_res, best_method = -1.0, None, None, "randomFamily"
    for ts in trial_seeds:
        rng = np.random.default_rng(ts)
        f = shell_signal(rng.standard_normal(n_live) + 1j * rng.standard_normal(n_live))
        val, res = witness_ratio(f)
        if val > best_val:
            best_val, best_f, best_res, best_method = val, f, res, "randomFamily"

    # Alternating maximization: freeze the per-x argmax (t, theta), take one
    # power step on the linearized normal operator, re-evaluate the true sup.
    coeffs = forward_transform(best_f).coeffs[live]
    res = best_res
    h = res.lattice_step
    dx = 2.0 / x_count
    stall = 0
    prev = best_val
    for _ in range(_MAX_ROUNDS):
        t_arg = t_grid[res.t_arg]
        th_arg = theta_values[res.theta_arg]
        pos = _cell_index(t_arg * th_arg, res.x, half_width, h) * h - half_width
        b_mat = (dxi / (2.0 * np.pi)) * shell_live[None, :] * np.exp(
            1j * (pos[:, None] * xi_live[None, :] + t_arg[:, None] * phi_live[None, :])
        )
        u = b_mat @ coeffs
        w = dx * np.abs(u) ** (q - 2.0)
        coeffs = b_mat.conj().T @ (w * u)
        nrm = np.sqrt(np.sum(np.abs(coeffs) ** 2) * dxi / (2.0 * np.pi))
        if nrm == 0.0:
            break
        coeffs = coeffs / nrm
        f = shell_signal(coeffs)
        val, res = witness_ratio(f)
        if val > best_val:
            best_val, best_method = val, "alternatingMax"
        if val <= prev * (1 + 1e-3):
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
        prev = val
    return NormEstimate(value=float(best_val), method=best_method)


def fit_scaling_exponent(pairs) -> tuple[float, float, float]:
    """OLS fit of log2(value) against k; returns (slope, intercept, residual)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ConfigError("need at least 3 (k, value) pairs")
    ks = np.array([p[0] for p in pairs], dtype=float)
    vals = np.array([p[1] for p in pairs], dtype=float)
    if not np.all(np.isfinite(ks)):
        raise ConfigError("k values must be finite")
    if not np.all((0 < vals) & (vals < np.inf)):  # NaN fails both
        raise ConfigError("values must be finite and positive")
    return _fit_line(ks, np.log2(vals))
