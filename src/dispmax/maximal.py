"""Grid computation of the directional maximal function and operator-norm probes.

The scan walks a uniform t-grid; for each time slice the evolved signal is
synthesized on a refined evaluation lattice (trigonometric interpolation by
spectral zero padding) and the points x + t*theta are snapped to that
lattice, so no interpolation error enters beyond the quarter-wavelength
resolution rule:

    t-step     <= (1/4) / max |Phi|   over the band of f,
    theta-step <= (1/4) / band,
    lattice    <= (1/4) / band.

The scan does only the work it reads, and its output bits are those of a
cell-by-cell scan: every value goes through the elementwise steps a cell
would.  One recurrence (_recurrence) evolves the time slices by
e^{it Phi}, and one synthesis step (_synthesis) transforms their
zero-padded rows with one inverse FFT per block of slices; both passes
below call it.

- Plain mode is screen, pairs, certify.  The window pass (_blocks) screens
  every slice in complex64, by the path and within the margin M that
  _screen decides, and its reduction (_near_max) marks each (slice, x)
  pair whose screened max lies within M of the screened max at x, so every
  pair left out lies strictly below the max at its x.  _certify then
  synthesizes the kept slices in complex128, reads each marked pair's
  cells by the per-cell index, and keeps the per-x max and its first
  (t, theta): the output keeps every bit.
- Convergence mode runs the window pass once, in complex128, and its
  reduction (_level_max) keeps only the per-level maxima of
  |u/h - f(x)|, which is all its caller reads.  Its small-r maxima lie far
  below any useful margin, so it is not screened.  Another per-x quantity
  is another reduction over the same blocks.

The window pass reads each slice through a few offsets, not cell by cell.
A cell's lattice index splits into an x part and a direction part:
x_idx + rint(t*theta/h), exactly, unless t*theta/h lies within a
rounding-error margin of a half-integer (see _blocks for the bound).  So a
time slice's directions reach only a few distinct offsets, the same for
every x.  The plan (_ScanPlan) depends on the grid alone: per time slice
its window of offsets and the offsets it reaches, the rare near-tie pairs,
and the blocks of slices with their lattice spans.  It holds nothing per x,
and a one-entry memo keeps it, so every scan of one band in
estimate_operator_norm, and back-to-back scans of one grid, build it once.
Per block the pass reads the lattice span in place in the FFT rows (a copy
only where the span wraps around the periodic box), builds the values
over each slice's window, and takes the max over the offsets the slice
reaches; the near-tie pairs use the per-cell index.

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
from .filters import _check_band, project, psi_k
from .spectral import (
    DispersionProfile,
    SampledSignal,
    SpectralCoefficients,
    _alternating_sign,
    forward_transform,
    inverse_transform,
)

_PHASE_BUDGET = 0.25  # max phase change (radians) per grid step in t, theta, x
# per block of time slices: its FFT rows (16 B a lattice point), its window values (32 B);
# also the cap on the GEMM screen's basis (8 B an entry)
_BLOCK_BYTES = 1 << 21
# complex64 multiply-adds a GEMM screen row may spend per unit of an FFT row's
# n_eval*log2(n_eval): scans timed with each screen forced (one BLAS thread) break even
# near 3.3 at n_eval 512 to 8192 (BENCH_34.json, "screen_crossover")
_GEMM_PER_FFT_STEP = 3
_TIE_MARGIN = 1e-6  # t*theta/h this near a half-integer takes the per-cell index (see _blocks)
_MAX_ROUNDS = 20  # alternating-maximization rounds per operator-norm estimate


@dataclass(frozen=True)
class MaximalResult:
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    # the (t, theta) grid indices attaining values; None for a convergence scan
    t_arg: np.ndarray | None = field(repr=False)
    theta_arg: np.ndarray | None = field(repr=False)
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
    reads lattice index x_idx + offset for every x (see _blocks); a near-tie
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
    """What a scan reads that depends on its grid alone (see _blocks).

    blocks has one row per block of time slices: the slices [start, stop),
    the lattice span [s0, s1), the window width, where the block's
    (slices, width) mask of reached offsets starts in reached, and its
    near-tie pairs [tie_lo, tie_hi).  Per time slice, lo is the lowest
    offset of its window.  Per near-tie pair, in slice order, tie_slice is
    its time slice and tie_prod its t*theta.  No array has an x axis, so a
    plan stays small next to the scan's FFT buffers.
    """

    blocks: np.ndarray
    lo: np.ndarray
    reached: np.ndarray
    tie_slice: np.ndarray
    tie_prod: np.ndarray

    @property
    def widest_span(self) -> int:
        """The widest lattice span s1 - s0 of a block."""
        return int((self.blocks[:, 3] - self.blocks[:, 2]).max())


def _build_plan(t_grid, theta_values, h, x_idx, rows) -> _ScanPlan:
    """The _ScanPlan of a grid, lattice step h, x lattice x_idx and row cap.

    Each block takes the longest run of the next rows time slices whose
    windows, at the run's widest, hold at most _BLOCK_BYTES // 32 values
    (one slice, if a slice holds more).
    """
    x_lo, x_hi = int(x_idx.min()), int(x_idx.max())
    lo_all = np.empty(len(t_grid), dtype=np.int64)
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
    return _ScanPlan(blocks=np.array(blocks, dtype=np.int64), lo=lo_all,
                     reached=np.concatenate(reached), tie_slice=np.concatenate(tie_slice),
                     tie_prod=np.concatenate(tie_prod))


def _fft_rows(n_eval):
    """The most time slices one inverse FFT of n_eval-point rows takes."""
    return max(1, _BLOCK_BYTES // (16 * n_eval))


_plan_memo = {}  # one entry: the plan of the grid scanned last, under its key


def _scan_plan(t_grid, theta_values, h, half_width, x_idx, n_eval) -> _ScanPlan:
    """The memoized _ScanPlan, keyed on the grid, the lattice, the block budget
    and the near-tie margin; its blocks hold at most _fft_rows(n_eval) slices.

    Every scan of one band in estimate_operator_norm, and back-to-back scans
    of one grid, share one plan; a scan of another grid replaces it.
    """
    rows = min(len(t_grid), _fft_rows(n_eval))
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
    """Shared sweep over (t, theta); returns per-x maxima, in plain mode with argmax data.

    Given r_levels (descending), the scanned quantity is
    |u(x+t*theta, t) - f(x)| and level_max holds the per-x maxima
    restricted to |t| <= r for each level.  values is then level_max[0],
    the max over the whole grid when t_grid lies in [-r_levels[0],
    r_levels[0]] as convergence_scan builds it, and t_arg and theta_arg are
    None: no argmax is taken.

    _scan sets up the lattice: the coarsest step h = 2*half_width/n_eval,
    n_eval a power of two, meeting the resolution rule, and the x points
    snapped to it; it refuses one too fine for exact float index arithmetic
    (see _blocks).  The result is bit for bit that of a scan that computes
    |u/h - f(x)| at every cell: see each function for its step.

    Plain mode is screen, pairs, certify.  _scan looks up the plan and
    forms adj once, and _screen decides the screen once (see there):
    data it cannot bound is not screened, and every pair is certified.
    Otherwise the window pass _blocks screens every time slice in
    complex64; _near_max marks the (slice, x) pairs whose screened max
    lies within the margin of the screened max at x; _certify synthesizes
    the kept slices in complex128 and reads the marked pairs cell by cell.
    values, t_arg and theta_arg keep every bit.
    Convergence mode runs the window pass once, in complex128, folded by
    _level_max: its small-r maxima of |u/h - f(x)| lie far below a margin
    of the size of |u/h|, so a screen would mark nearly every pair.
    """
    c = forward_transform(f)
    band = c.band_limit()
    half_width = f.half_width
    step_target = _PHASE_BUDGET / band if band > 0 else f.grid_step
    n_eval = f.n
    while 2.0 * half_width / n_eval > step_target:
        n_eval *= 2
    h = 2.0 * half_width / n_eval
    phi = np.asarray(profile.phi(c.frequencies), dtype=float)

    ideal = -1.0 + (np.arange(x_count) + 0.5) * (2.0 / x_count)
    x_idx = np.round((ideal + half_width) / h).astype(np.int64)
    x_snap = x_idx * h - half_width

    reach = np.max(np.abs(t_grid)) * np.max(np.abs(theta_values))
    if (np.max(np.abs(x_snap)) + half_width + reach) / h + 1 >= 2.0**30:
        raise RangeError(f"a scan lattice of step {h:g} over |x| <= {half_width:g} is too fine "
                         "for exact float index arithmetic")

    adj = _alternating_sign(c.n) * c.coeffs
    plan = _scan_plan(t_grid, theta_values, h, half_width, x_idx, n_eval)
    grid = (adj, phi, t_grid, plan, h, n_eval, half_width, x_idx, x_snap)
    if r_levels is not None:
        level_max = _level_max(_blocks(*grid, True), t_grid, r_levels, x_count)
        return MaximalResult(x=x_snap, values=level_max[0], t_arg=None, theta_arg=None,
                             lattice_step=h, level_max=level_max)
    screen = _screen(c.coeffs, n_eval, half_width, plan.widest_span)
    if screen is None:
        kept, marked = np.arange(len(t_grid)), np.ones((len(t_grid), x_count), dtype=bool)
    else:
        gain, live, margin = screen
        kept, marked = _near_max(_blocks(*grid, False, gain, live), margin)
    values, t_arg, theta_arg = _certify(adj, phi, t_grid, theta_values, h, n_eval, half_width,
                                        x_snap, kept, marked)
    return MaximalResult(x=x_snap, values=values, t_arg=t_arg, theta_arg=theta_arg, lattice_step=h)


def _recurrence(phi, t_grid, bounds):
    """Yield, per block [start, stop) of bounds, the rows e^{it Phi} of its
    time slices, phi being Phi at the frequencies.

    One chain, carried across blocks and stepped through every slice, so no
    bit depends on where a block starts; each entry's chain is its own, so
    the rows of a subset of the frequencies are those columns of the rows of
    all.  The rows share one buffer, which the next block overwrites.
    """
    rows = max(stop - start for start, stop in bounds)
    cur = np.exp(1j * t_grid[0] * phi)
    dt = t_grid[1] - t_grid[0] if len(t_grid) > 1 else 0.0
    step_mult = np.exp(1j * dt * phi)
    coeff = np.empty((rows, len(phi)), dtype=complex)
    coeff_rows = list(coeff)
    for start, stop in bounds:
        nb = stop - start
        coeff[0] = cur
        for i in range(1, nb):
            np.multiply(coeff_rows[i - 1], step_mult, out=coeff_rows[i])
        cur = coeff[nb - 1] * step_mult
        yield coeff[:nb]


def _synthesis(adj, phi, t_grid, n_eval, bounds, dtype=complex, kept=None):
    """Yield (slices, fields) per block [start, stop) of bounds: fields[i] is
    the inverse FFT row of time slice slices[i] on the n_eval lattice.

    adj = _alternating_sign(n) * c.coeffs, possibly scaled, and phi is Phi
    at the frequencies.  A slice's row is the inverse FFT of e^{it Phi} *
    adj (_recurrence), zero-padded to n_eval: unnormalized (norm="forward")
    in complex128, with numpy's default norm in complex64 (see _blocks).  A
    block transforms all of its slices, or, given kept (sorted), those in
    kept; a block without one yields nothing.  The FFT transforms each row
    alone, so no bit depends on which of a block's slices are transformed.
    The two buffers, allocated once for the longest block, are a zero-padded
    input whose live slices [0, n/2) and [n_eval - n/2, n_eval) are
    overwritten per block (the padding between them stays zero), and the
    FFT output, which the next block overwrites.
    """
    half = len(adj) // 2
    rows = max(stop - start for start, stop in bounds)
    padded = np.zeros((rows, n_eval), dtype=dtype)
    fields = np.empty((rows, n_eval), dtype=dtype)
    norm = "forward" if np.dtype(dtype) == np.complex128 else None

    for (start, stop), coeff in zip(bounds, _recurrence(phi, t_grid, bounds)):
        if kept is None:
            slices, sel = np.arange(start, stop), slice(None)
        else:
            slices = kept[np.searchsorted(kept, start) : np.searchsorted(kept, stop)]
            sel = slices - start
        m = len(slices)
        if not m:
            continue
        np.multiply(coeff[sel, :half], adj[:half], out=padded[:m, n_eval - half :])
        np.multiply(coeff[sel, half:], adj[half:], out=padded[:m, :half])
        np.fft.ifft(padded[:m], axis=1, norm=norm, out=fields[:m])
        yield slices, fields[:m]


def _span_products(adj, phi, t_grid, n_eval, plan, live):
    """Yield (slices, span) per block of plan, the GEMM screen: span[i, j] is
    the field of time slice slices[i] at lattice column s0 + j of the
    block's span [s0, s1), in complex64, summed over the live coefficients.

    adj (scaled, see _blocks) sits at lattice position f_m mod n_eval of a
    padded row, f_m = m - n/2 its signed frequency index, so the
    unnormalized inverse DFT of the row e^{it Phi} * adj at column s0 + j is
    sum_m (e^{it Phi_m} adj_m e^{2 pi i f_m s0 / n_eval}) e^{2 pi i f_m j / n_eval}.
    Per block, the left factor holds those brackets over the live m,
    computed in complex128 and rounded once to complex64; the basis, shared
    by every block, holds e^{2 pi i ((f_m j) mod n_eval) / n_eval} over the
    columns j of the widest span, each part computed in float64 and rounded
    once to float32; one complex64 matrix product of the left factor and
    the basis's first s1 - s0 columns is the span.  _recurrence steps the
    live entries alone: their bits are those _synthesis gives them.
    """
    freq = live - len(adj) // 2
    bounds = plan.blocks[:, :2].tolist()
    # (f_m j) mod n_eval is exact in float64: |f_m j| stays far below 2^53.
    angle = np.multiply.outer(freq.astype(float), np.arange(plan.widest_span, dtype=float))
    angle %= n_eval
    angle *= 2.0 * np.pi / n_eval
    basis = np.empty(angle.shape, dtype=np.complex64)
    np.cos(angle, out=basis.real)
    np.sin(angle, out=basis.imag)
    del angle
    adj_live = adj[live]
    left = np.empty((max(stop - start for start, stop in bounds), len(live)), dtype=np.complex64)
    for (start, stop, s0, s1), coeff in zip(plan.blocks[:, :4].tolist(),
                                            _recurrence(phi[live], t_grid, bounds)):
        shift = np.exp((2j * np.pi / n_eval) * ((freq * s0) % n_eval))
        np.multiply(coeff, adj_live * shift, out=left[: stop - start])
        yield np.arange(start, stop), np.matmul(left[: stop - start], basis[:, : s1 - s0])


def _blocks(adj, phi, t_grid, plan, h, n_eval, half_width, x_idx, x_snap, subtract, gain=None,
            live=None):
    """Yield (slices, tmax) per block of plan's time slices: the window pass.

    adj = _alternating_sign(n) * c.coeffs, c = forward_transform(f), and
    phi is Phi at its frequencies.  Per block, slices holds its time slices
    and tmax[i, x] the max over the cells of (slices[i], x) of |u/h - f(x)|
    if subtract, else |u/h|.  Given gain, the pass is _scan's complex64
    screen (see _screen); without, it runs in complex128, as convergence
    mode does.  Windows and near ties exist for this pass alone.

    A block holds at most _fft_rows(n_eval) slices, the rows of its one
    inverse FFT (_synthesis).  If subtract, f(x) is first
    synthesized on the one-slice grid t = 0, whose multiplier e^{i 0 Phi}
    is exactly 1 + 0i: the row is adj's own, up to the sign of a zero,
    which the abs of each value drops.

    The FFT runs unnormalized (norm="forward"), and the pass divides each
    value it reads by 2*half_width, where the normalized FFT scales the
    whole row by 1/n_eval in a pass of its own and the value is then
    divided by h.  The bits agree.  n_eval is a power of two, so the
    1/n_eval scaling is exact and n_eval*h is 2*half_width exactly.  numpy
    divides a complex by a real by multiplying both parts by the rounded
    reciprocal, and fl(1/(n_eval*h)) = fl(1/h)/n_eval exactly; so both
    ways round the same real number, once.  This needs every value, and
    every value over n_eval, to stay a normal float (above 2^-1022, below
    2^1024); data from 1e-200 to 1e200 stays far inside.

    Given gain, from _screen, adj is multiplied by it, so every entry lies
    below 1.  Without live, the padded rows, computed in complex128 as
    above, are rounded once to complex64, and the FFT takes numpy's default
    norm, which scales by the exact 1/n_eval: norm="forward" on complex64
    runs about 6 times slower in numpy 2.4 (90 against 14 us a row at
    n_eval 4096).  Given live, no row is padded or transformed:
    _span_products computes each block's span by one complex64 matrix
    product over the live coefficients, without the 1/n_eval.  The window
    values stay in those float32 units; tmax is rescaled to u/h in
    float64, by n_eval / (gain * 2*half_width) after the FFT,
    1 / (gain * 2*half_width) after the product.

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
    that (_scan refuses M >= 2^30, where the bound reaches 1e-6) and far
    below 1/2.  Off the margin the two round alike, so the offset does not
    depend on x.  On it, rint rounds half to even and the index depends on
    the parity of x_idx: such near-tie pairs take the per-cell expression.

    So per time slice only the distinct offsets D(t) of its directions are
    read.  Each block builds the values of the window [lo(t), lo(t) +
    width) of offsets around each x, which holds every offset of the
    slice, and one more on each side of a near-tie pair's.  The block
    holds at most _BLOCK_BYTES // 32 window values (one slice, if a slice
    holds more), of 16 B of temporaries each, 32 B with f(x).  Its lattice
    span [s0, s1) is read in place where it lies inside [0, n_eval): a view
    of the FFT rows, divided by 2*half_width in place, whose window values
    are gathered from the rows by flat position.  Only a span that wraps
    around the periodic box is copied, once, with its column indices taken
    modulo n_eval; the GEMM screen's product is the span itself, columns
    s0 to s1 - 1 by periodicity.  No cell takes an index modulo n_eval.  Without
    subtract the pass takes |u/h| once per lattice column of the span and
    gathers the window values from those.  tmax is the max of the window
    values at the offsets in D(t), off near-tie pairs (a masked max), raised
    by the values the near-tie pairs read.

    Every window value goes through a cell's elementwise operations in the
    same order (gather, divide by h, subtract f(x), abs), in place or in a
    copy, and each cell's value is the window value at its index.
    """
    scale = 2.0 * half_width  # n_eval * h, see above
    screen = gain is not None
    if screen:
        adj = adj * gain
        unit = (n_eval if live is None else 1) / gain / scale
    if subtract:  # f(x), the field at t = 0
        ((_, field0),) = _synthesis(adj, phi, np.zeros(1), n_eval, [(0, 1)])
        f0 = field0[0, x_idx % n_eval] / scale
    x_pos = np.arange(len(x_idx))
    # The lattice column of (offset - lo, x) relative to lo, for the widest window.
    window_cols = np.arange(plan.blocks[:, 4].max())[:, None] + x_idx

    if live is None:
        synthesized = _synthesis(adj, phi, t_grid, n_eval, plan.blocks[:, :2].tolist(),
                                 np.complex64 if screen else complex)
    else:
        synthesized = _span_products(adj, phi, t_grid, n_eval, plan, live)
    for (start, stop, s0, s1, width, r0, tie_lo, tie_hi), (slices, fields) in zip(
            plan.blocks.tolist(), synthesized):
        nb = stop - start
        lo = plan.lo[start:stop]

        # The block's lattice span [s0, s1) as u/h (the screen keeps its
        # FFT's or GEMM's units): in place in the FFT rows, or a copy where
        # it wraps around the periodic box; the GEMM yields the span alone.
        in_place = live is None and 0 <= s0 and s1 <= n_eval
        if in_place:
            span = fields[:, s0:s1]
        elif live is None:
            span = np.take(fields, np.arange(s0, s1), axis=1, mode="wrap")
        else:
            span = fields
        if not screen:
            span /= scale

        # The window values per (t, offset - lo, x): they depend on x
        # through the lattice point, and through f(x) if subtract.  first
        # is the flat position of (slice, lo) in the span.
        first = np.arange(nb) * (s1 - s0) + lo - s0
        if subtract:
            if in_place:  # its flat position in the FFT rows
                first = np.arange(nb) * n_eval + lo
            g = (fields if in_place else span).take(first[:, None, None] + window_cols[:width])
            g -= f0
            vals = np.abs(g)
        else:
            vals = np.abs(span).take(first[:, None, None] + window_cols[:width])

        reached = plan.reached[r0 : r0 + nb * width].reshape(nb, width, 1)
        tmax = vals.max(axis=1, where=reached, initial=-1.0)
        if tie_hi > tie_lo:
            ti = plan.tie_slice[tie_lo:tie_hi] - start
            idx = _cell_index(plan.tie_prod[tie_lo:tie_hi, None], x_snap, half_width, h)
            np.maximum.at(tmax, ti, vals[ti[:, None], idx - x_idx - lo[ti][:, None], x_pos])
        if screen:
            tmax = unit * tmax.astype(float)
        yield slices, tmax


def _screen(coeffs, n_eval, half_width, widest):
    """(gain, live, margin): the complex64 screen of a plain-mode scan of a
    signal of coefficients coeffs on the n_eval lattice, widest being its
    plan's widest block span; None for coefficients that are all zero, not
    finite, or beyond 2^+-960 in size, which get no screen.

    gain = 2^-e, max|coeffs| = m * 2^e with m in [1/2, 1), an exact power
    of two: scaled by it, every entry of adj lies below 1, and float32
    neither overflows nor loses more than 2^-149 to subnormals.

    live selects the path.  The live coefficients are those left after
    dropping the smallest while the l1 norm of the dropped stays <= 2^-24
    ||coeffs||_1: projected data keeps round-off where its filter vanishes
    (509 of 512 coefficients nonzero on criterion 4's k=4 shell, about 240
    live).  Where the GEMM's basis of n_live * widest complex64 values fits
    _BLOCK_BYTES and its n_live * widest multiply-adds a row stay within
    _GEMM_PER_FFT_STEP times an FFT row's n_eval * log2(n_eval), live holds
    their indices, in order, and _blocks computes each block's lattice span
    alone by one complex64 matrix product over them (_span_products):
    criterion 4's grids at k <= 5.  Elsewhere live is None and _blocks
    takes the complex64 inverse FFT of full rows.

    margin is M, in units of u/h, for the path taken.  Each (slice, x)
    pair's screened max and its complex128 max lie within a pointwise error
    bound of the exact max: e_fft(u) for an FFT in unit roundoff u (2^-24
    for the FFT screen, 2^-53 for _certify), e_gemm for the GEMM screen.
    The exact values are those of the rows P = e^{itPhi} * adj both passes
    compute in complex128 (one recurrence, see _recurrence), through the
    exact unnormalized inverse DFT y, divided by 2*half_width.

    FFT: e_fft(u) = rho(u) * sqrt(n_eval) * ||adj||_2 / (2*half_width), as
    |y_j| <= sqrt(n_eval) * ||P||_2 and ||y||_2 = sqrt(n_eval) * ||P||_2,

        rho(u) = 2 * (L eta / (1 - L eta) + 2u),  eta = u + gamma_4 (sqrt 2 + u),
        gamma_k = k u / (1 - k u),  L = log2(n_eval).

    L eta / (1 - L eta) is the normwise bound of a radix-2 FFT whose
    twiddle factors are off by at most u (Higham 2002, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 24.2), and a
    pointwise error is at most the normwise one.  2u is the rounding of
    the input to float32 and of abs (for _certify, of the division by
    2*half_width and of abs).  The factor 2 covers pocketfft's radix-4
    passes and, with room to spare, the rest: |e^{itPhi}| drifts by under
    2^-25 over MAX_COUNT recurrence steps, float32 subnormals lose at most
    2^-149 an entry of size up to 1, and the float64 rescaling of the
    screened maxima, the norm and the threshold each round once.  At
    n_eval = 4096, rho(2^-24) is 164 units of 2^-24.

    GEMM (_span_products), u = 2^-24 and n = len(live):

        e_gemm = 2 * (gamma_{n+2} + 4u + 2^-52) * ||adj_live||_1 / (2*half_width)
                 + ||adj_dropped||_1 / (2*half_width).

    A complex inner product of length n, summed in any order, with or
    without FMA, over any split of the sum between BLAS threads, is off by
    at most sqrt(2) gamma_{n+1} sum_m |a_m| |b_m| (Higham 2002, Sec. 3.6:
    each product is off by gamma_2 of |Re|+|Im| parts, each sum passes at
    most n - 1 additions).  Every |b_m| = 1 and sum_m |a_m| = gain *
    ||P_live||_1.  The 4u are the rounding of the left factor to complex64
    (u), of the basis (u, its float64 angle and cos/sin far below that),
    and of abs (2u); 2^-52 the float64 rescaling by n_eval / (gain *
    2*half_width), two roundings.  The dropped coefficients move |y_j| by
    at most ||P_dropped||_1.  The factor 2 covers sqrt(2), the products of
    the (1 + u) factors, the recurrence's drift (||P||_1 <= (1 + 2^-25) *
    ||adj||_1), float32 subnormals (at most 2^-149 an entry, where the
    largest |a_m| is at least 1/2), and the float64 sums of the norms.

    M = 2 * (e_screen + e_fft(2^-53)).  If a pair's screened max lies below
    the screened max at its x minus M, its complex128 max lies below the
    complex128 max at x minus M - 2 (e_screen + e_fft(2^-53)) = 0: strictly
    below.
    """
    mag = np.abs(coeffs)
    top = mag.max()
    if not 2.0**-960 <= top <= 2.0**960:  # NaN fails too
        return None
    gain = 2.0 ** -np.frexp(top)[1]
    mag *= gain
    steps = np.log2(n_eval)

    def rho(u):
        eta = u + 4.0 * u / (1.0 - 4.0 * u) * (np.sqrt(2.0) + u)
        return 2.0 * (steps * eta / (1.0 - steps * eta) + 2.0 * u)

    l2 = np.linalg.norm(mag) * np.sqrt(n_eval)
    order = np.argsort(mag, kind="stable")
    smallest = np.cumsum(np.concatenate(([0.0], mag[order])))  # l1 of the j smallest, j >= 0
    n_drop = np.count_nonzero(smallest <= 2.0**-24 * np.sum(mag)) - 1
    n_live = len(mag) - n_drop
    work = n_live * widest
    if work <= _GEMM_PER_FFT_STEP * n_eval * steps and 8 * work <= _BLOCK_BYTES:
        live, u = np.sort(order[n_drop:]), 2.0**-24
        gamma = (n_live + 2) * u / (1.0 - (n_live + 2) * u)
        error = 2.0 * (gamma + 4.0 * u + 2.0**-52) * np.sum(mag[live]) + smallest[n_drop]
    else:
        live, error = None, rho(2.0**-24) * l2
    return gain, live, 2.0 * (error + rho(2.0**-53) * l2) / gain / (2.0 * half_width)


def _near_max(blocks, margin):
    """(kept, marked): the (slice, x) pairs whose tmax lies within margin of the per-x max.

    The reduction of _scan's screen.  kept holds, in order, each time slice
    with such a pair, and marked, of shape (len(kept), x_count), whether
    (kept[i], x) is one; no array spans every slice and every x.  A pair
    within margin of the final max is within margin of the running max,
    which is no larger; so each block keeps, as candidates, only its slices
    with a pair within margin of the running max, and the final max then
    marks their pairs.  Ties of the max are marked (>=).
    """
    top = None
    cand_slices, cand_tmax = [], []
    for slices, tmax in blocks:
        top = tmax.max(axis=0) if top is None else np.maximum(top, tmax.max(axis=0))
        near = (tmax >= top - margin).any(axis=1)
        cand_slices.append(slices[near])
        cand_tmax.append(tmax[near])
    marked = np.concatenate(cand_tmax) >= top - margin
    near = marked.any(axis=1)
    return np.concatenate(cand_slices)[near], marked[near]


def _certify(adj, phi, t_grid, theta_values, h, n_eval, half_width, x_snap, kept, marked):
    """(values, t_arg, theta_arg): per x, the max over the cells of its marked
    pairs and the first (t, theta) attaining it.

    The last step of _scan's plain mode, given adj as _blocks is.  kept
    holds time slices in order and marked[i, x] whether the pair (kept[i],
    x) is read; a pair left out must lie strictly below the max at its x
    (see _screen).  _synthesis gives the kept slices' complex128 rows, in
    blocks of at most _fft_rows(n_eval) slices; its recurrence stops at the
    last kept slice.  Each marked pair reads its n_theta cells at
    _cell_index modulo n_eval, divides them by 2*half_width and takes abs,
    as _blocks does (see there for the bits); at most _BLOCK_BYTES // 64
    cells are read at once (one pair's, if a pair holds more).  Per pair
    the max and its first theta are kept.  Per x a block's candidate is its
    first slice attaining its max, and a later block replaces the best only
    where it is larger; so the first t, then the first theta, is the same
    first occurrence as an argmax over the flattened (t, theta) pairs.
    """
    scale = 2.0 * half_width
    x_count = marked.shape[1]
    x_pos = np.arange(x_count)
    best = np.full(x_count, -1.0)
    best_t = np.zeros(x_count, dtype=np.int64)
    best_th = np.zeros(x_count, dtype=np.int64)
    rows, end = _fft_rows(n_eval), int(kept[-1]) + 1
    bounds = [(start, min(start + rows, end)) for start in range(0, end, rows)]
    batch = max(1, _BLOCK_BYTES // (64 * len(theta_values)))  # pairs read at once
    done = 0
    for slices, fields in _synthesis(adj, phi, t_grid, n_eval, bounds, kept=kept):
        m = len(slices)
        pair_row, pair_x = np.nonzero(marked[done : done + m])
        done += m
        top = np.full((m, x_count), -1.0)
        top_th = np.zeros((m, x_count), dtype=np.int64)
        for p in range(0, len(pair_row), batch):
            r, x = pair_row[p : p + batch], pair_x[p : p + batch]
            idx = _cell_index(t_grid[slices[r], None] * theta_values, x_snap[x, None], half_width, h)
            vals = np.abs(fields[r[:, None], idx % n_eval] / scale)
            top[r, x], top_th[r, x] = vals.max(axis=1), vals.argmax(axis=1)
        arg = top.argmax(axis=0)
        cand = top[arg, x_pos]
        upd = np.flatnonzero(cand > best)
        best[upd], best_t[upd], best_th[upd] = cand[upd], slices[arg[upd]], top_th[arg[upd], upd]
    return best, best_t, best_th


def _level_max(blocks, t_grid, r_levels, x_count):
    """(len(r_levels), x_count): per level r, the per-x max of the blocks' tmax over |t| <= r.

    Levels [0, count) hold a time slice, count being the number of levels r
    with |t| <= r, found once per scan.  Per block, one max of tmax over
    the slices of each distinct count (one count for nearly every block) is
    folded into level_max[:count].  A max does not depend on the order it
    visits its values, so folding per block and per count, rather than per
    level, gives the bits of one max per level over its slices.
    """
    level_max = np.zeros((len(r_levels), x_count))
    held_all = np.count_nonzero(np.abs(t_grid)[:, None] <= r_levels * (1 + 1e-12), axis=1)
    for slices, tmax in blocks:
        held = held_all[slices]
        for count in set(held.tolist()) - {0}:
            top = tmax[held == count].max(axis=0)
            np.maximum(level_max[:count], top, out=level_max[:count])
    return level_max


def _check_x_count(x_count) -> None:
    """Refuse an x_count that is not an integer of at least 1, before the grid is built."""
    check_integers(x_count=x_count)
    if x_count < 1:
        raise ConfigError(f"x_count={x_count} must be at least 1")


def _scan_transform(f: SampledSignal) -> SpectralCoefficients:
    """forward_transform(f), refusing, before the grid is built, a signal with a
    NaN or infinite sample (ConfigError) and, as forward_transform does, one
    whose transform overflows (RangeError): every cell of its scan would be
    NaN, and no per-x max would replace the fold's initial -1.0."""
    if not np.all(np.isfinite(f.values)):
        raise ConfigError("the signal has a NaN or infinite sample")
    return forward_transform(f)


def maximal_function(
    f: SampledSignal,
    theta: DirectionSet,
    profile: DispersionProfile,
    x_count: int = 65,
) -> MaximalResult:
    """Per-x supremum of |S_t f(x + t*theta)| over the grid for f's band limit.

    Raises ConfigError for a signal with a NaN or infinite sample, and
    RangeError where its transform overflows, before the grid is built.
    """
    _check_x_count(x_count)
    t_grid, theta_values = grid_for_band(_scan_transform(f).band_limit(), profile, theta)
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
    with sup_matrix of shape (n_levels, x_count).  Refuses a non-finite
    signal as maximal_function does.
    """
    _check_x_count(x_count)
    r_levels = np.sort(np.asarray(r_levels, dtype=float))[::-1]
    if not (r_levels.size and r_levels[0] <= 1.0 and r_levels[-1] > 0.0):  # NaN lands first
        raise ConfigError("scales must lie in (0, 1] and be nonempty")
    band = _scan_transform(f).band_limit()
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
    _check_band(k, 1)
    if np.shape(omega) != (2,):
        raise ConfigError(f"omega={omega!r} must be one interval (lo, hi)")
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
