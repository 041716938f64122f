"""The TT* oscillatory kernel, its region decomposition, and the van der Corput checker.

The kernel is K_lambda(w, w') = int exp(i*phase(lambda*xi)) psi(xi)^2 dxi
over the support of psi, with phase(xi) = (x - x' + t*theta - t'*theta')*xi
+ (t - t')*Phi(xi).  Quadrature bisects panels until the phase variation per
panel drops below a fixed budget, then applies a 128-point Gauss rule per
panel; the oracle is the same scheme at 10x panel density.

When no panel is refined (in kernel-scan: every query at lambda <= 2^5 and
every query at a = 1.2), only the phase depends on the query.  Those queries
share one read-only rule, built once per density: the nodes and half*psi^2 of
the unrefined panels.  Refined panels are summed in blocks of _BLOCK panels
in preallocated buffers that fit in a core's L2 cache.  The partial sums
still cover 4096-panel chunks, because they fix how the sum rounds: each
chunk's column sums add its rows in order, carried from block to block, so
the output bits do not depend on the block size.

psi^2 is interpolated from one table of 2^20 + 1 values, built in blocks so
that the build's peak memory is little more than the table's 8.4 MB.  The
table and the Gauss sum's work arrays are allocated once per process.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigError, DispmaxError, HypothesisError, QuadratureError, check_lambda,
                     check_sigma)
from .filters import _smooth_step, psi, psi0
from .spectral import DispersionProfile

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)

# A 128-point Gauss rule integrates up to ~130*pi of phase variation per
# panel to below 1e-11; 128*pi leaves a margin for phase curvature while
# staying far inside the panel budget at the largest lambda scanned.
PANEL_PHASE_BUDGET = 128.0 * np.pi
PANEL_LIMIT = 10**6
# Uniform panels per support interval before refinement: the smooth cutoff
# needs resolution even at zero phase.
_BASE_SPLIT = 64

_SUPPORT = ((-2.0, -0.5), (0.5, 2.0))

# psi^2 on a dense table: linear interpolation is accurate to ~1e-10 here and
# avoids re-evaluating the exponential bump at millions of quadrature nodes.
# Only the table is stored: _psi_sq takes table[i + 1] - table[i] as it reads.
_TABLE_POINTS = 2**20 + 1
# Points per block of the table build, so that psi's temporaries stay ~1 MB.
_TABLE_BLOCK = 2**14


@functools.cache
def _psi_sq_table():
    """psi^2 at 2^20 + 1 uniform points of [0.5, 2], zeroed at both ends.

    Built in place, block by block; psi acts pointwise, so the values equal
    those of one whole-array call.
    """
    table = np.linspace(0.5, 2.0, _TABLE_POINTS)
    for start in range(0, _TABLE_POINTS, _TABLE_BLOCK):
        block = table[start : start + _TABLE_BLOCK]
        block[...] = psi(block) ** 2
    table[0] = table[-1] = 0.0
    return table


def _psi_sq(xi, out=None, pos=None, idx=None):
    """psi(xi)^2 by uniform-grid linear interpolation; 0 outside 0.5 <= |xi| <= 2.

    out and pos (float) and idx (int64), each shaped like xi, are optional
    work buffers; pos and idx are overwritten.
    """
    table = _psi_sq_table()
    pos = np.abs(xi, out=pos)
    pos -= 0.5
    pos *= (len(table) - 1) / 1.5
    if idx is None:
        idx = np.empty(pos.shape, dtype=np.int64)
    np.copyto(idx, pos, casting="unsafe")  # truncates toward zero, as astype does
    # Below |xi| = 0.5 the index clamps to 0, where table[0] and table[1] are 0.
    np.clip(idx, 0, len(table) - 2, out=idx)
    frac = pos
    frac -= idx
    # idx is in range; mode="clip" only spares take a buffered bounds check.
    lo = np.take(table, idx, mode="clip")
    idx += 1
    out = np.take(table, idx, out=out, mode="clip")
    out -= lo  # the forward difference, as np.diff rounds it
    out *= frac
    out += lo
    return out


def _phi_at(profile: DispersionProfile, lam: float, nodes: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """Phi(lam*nodes) into out."""
    # The power branch avoids the generic branchy evaluation.  Its rounding is
    # part of the output: routing it through profile.phi moves kernel_scan.csv.
    # numpy squares for the exponent 2.0, so |nodes|^2 is nodes*nodes bit for
    # bit; pow(lam, 2.0) need not be correctly rounded, so lam*lam stays.
    if profile.a is not None:
        np.abs(nodes, out=out)
        out **= profile.a
        out *= lam * lam if profile.a == 2.0 else lam**profile.a
        return out
    out[...] = profile.phi(lam * nodes)
    return out


_REGIONS = ("V1", "V2", "V3")


def _region_labels(dx, dt, width):
    """V1 where |x - x'| < 4|t - t'|, else V2 where |x - x'| >= 4*width, else V3."""
    return np.where(dx < 4.0 * dt, "V1", np.where(dx >= 4.0 * width, "V2", "V3"))


def _base_panels(intervals):
    """_BASE_SPLIT uniform panels (a, b) per interval, the start of refinement."""
    edges = np.linspace(*np.array(intervals).T, _BASE_SPLIT + 1, axis=-1)
    return edges[:, :-1].ravel(), edges[:, 1:].ravel()


def _refine_panels(intervals, dphase: Callable):
    """Subdivide until phase variation per panel is below PANEL_PHASE_BUDGET.

    Each starting interval is first cut into _BASE_SPLIT uniform panels;
    panels whose estimated variation exceeds the budget are then split
    proportionally, up to PANEL_LIMIT panels in all.
    """
    a, b = _base_panels(intervals)
    for _ in range(64):
        mid = 0.5 * (a + b)
        # Simpson estimate of int |phase'| over the panel, floored at the
        # worst-slope bound times half the width so sign changes of phase'
        # cannot hide variation.  A phase' too large for a float fails below.
        with np.errstate(over="ignore", invalid="ignore"):
            da, dm, db = np.abs(dphase(a)), np.abs(dphase(mid)), np.abs(dphase(b))
            var = (b - a) * np.maximum(
                (da + 4.0 * dm + db) / 6.0, 0.5 * np.maximum(da, np.maximum(dm, db))
            )
        if not np.isfinite(var).all():
            raise QuadratureError("the phase variation over a panel overflows a float")
        if (var <= PANEL_PHASE_BUDGET).all():
            return a, b
        n_sub = np.maximum(1.0, np.ceil(var / PANEL_PHASE_BUDGET))
        # Summed in float (exact for whole counts), before a huge phase can overflow int64.
        total = n_sub.sum()
        if not total <= PANEL_LIMIT:
            raise QuadratureError(
                f"panel budget {PANEL_LIMIT} exceeded while resolving the oscillatory phase"
            )
        n_sub = n_sub.astype(np.int64)
        width = (b - a) / n_sub
        rep_w = np.repeat(width, n_sub)
        offsets = np.arange(int(total)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
        a = np.repeat(a, n_sub) + offsets * rep_w
        b = a + rep_w
    raise QuadratureError("panel refinement failed to converge")


def _split_panels(a, b, density: int):
    """Each panel (a, b) cut into density equal panels."""
    if density == 1:
        return a, b
    offs = np.arange(density) / density
    width = (b - a) / density
    a = (a[:, None] + offs[None, :] * (b - a)[:, None]).ravel()
    return a, a + np.repeat(width, density)


def _gauss_nodes(a, b, out=None):
    """(nodes, half): Gauss nodes of the panels (a, b) and their half-widths."""
    half = 0.5 * (b - a)
    nodes = np.multiply(half[:, None], _GL_NODES, out=out)
    nodes += (0.5 * (a + b))[:, None]
    return nodes, half


def _gauss_rule(a, b, nodes, amp, pos=None, idx=None):
    """Gauss nodes of the panels (a, b) into nodes, their half-width * psi^2 into amp."""
    half = _gauss_nodes(a, b, nodes)[1]
    _psi_sq(nodes, amp, pos, idx)
    amp *= half[:, None]


@functools.cache
def _unrefined_rule(density: int):
    """Read-only nodes and half-width * psi^2 of the unrefined panels at density."""
    a, b = _split_panels(*_base_panels(_SUPPORT), density)
    nodes = np.empty((len(a), len(_GL_NODES)))
    amp = np.empty_like(nodes)
    _gauss_rule(a, b, nodes, amp)
    nodes.flags.writeable = amp.flags.writeable = False
    return nodes, amp


# Panels per block of the Gauss sum: the six (_BLOCK, 128) work arrays of a
# refined query take 1.5 MiB, inside a 2 MiB L2 cache.  Divides _SUM_CHUNK.
_BLOCK = 256
# Panels per partial sum.  The column sums of each chunk are added row by row
# and then weighted, so this fixes how the sum rounds, i.e. the output bits.
_SUM_CHUNK = 4096


@functools.cache
def _work_arrays():
    """kernel_value's six work arrays, allocated once per process.

    (nodes, amp, idx, phase) are (_BLOCK, 128); (re, im) have one more row.
    Reused by every call, so kernel_value is not reentrant across threads.
    """
    shape, sums = (_BLOCK, len(_GL_NODES)), (_BLOCK + 1, len(_GL_NODES))
    return (np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int64),
            np.empty(shape), np.empty(sums), np.empty(sums))


def kernel_value(shift: float, dt: float, lam: float, profile: DispersionProfile,
                 density: int = 1) -> complex:
    """Adaptive Gauss quadrature of the TT* kernel; density=10 is the oracle.
    A pair (w, w') enters only through the phase's coefficients
    shift = x - x' + t*theta - t'*theta' and dt = t - t'."""
    if not (isinstance(density, (int, np.integer)) and density >= 1):
        raise ConfigError(f"density={density!r} must be an integer of at least 1")
    if not (np.isfinite(shift) and np.isfinite(dt)):
        raise ConfigError(f"shift={shift} and dt={dt} must be finite")
    check_lambda(lam)

    def dphase(xi):
        return shift * lam + dt * lam * profile.phi_prime(lam * xi)

    a, b = _refine_panels(_SUPPORT, dphase)
    # Refinement only ever adds panels, so this count means none was split.
    shared = len(a) == 2 * _BASE_SPLIT
    if shared:
        all_nodes, all_amp = _unrefined_rule(density)
        n_panels = len(all_nodes)
    else:
        a, b = _split_panels(a, b, density)
        n_panels = len(a)
    # phase_buf is also psi^2's work buffer.  Rows 1.. of re and im take a
    # block's terms; row 0 carries its chunk's column sums.
    node_buf, amp_buf, idx_buf, phase_buf, re, im = _work_arrays()
    re_total = 0.0
    im_total = 0.0
    for start in range(0, n_panels, _BLOCK):
        stop = min(start + _BLOCK, n_panels)
        n = stop - start
        if shared:
            nodes, amp = all_nodes[start:stop], all_amp[start:stop]
        else:
            nodes, amp = node_buf[:n], amp_buf[:n]
            _gauss_rule(a[start:stop], b[start:stop], nodes, amp, phase_buf[:n], idx_buf[:n])
        phase = _phi_at(profile, lam, nodes, phase_buf[:n])
        phase *= dt
        re_rows, im_rows = re[1 : n + 1], im[1 : n + 1]
        phase += np.multiply(nodes, shift * lam, out=re_rows)
        np.cos(phase, out=re_rows)
        re_rows *= amp
        np.sin(phase, out=im_rows)
        im_rows *= amp
        first = 1 if start % _SUM_CHUNK == 0 else 0
        re[0] = re[first : n + 1].sum(axis=0)
        im[0] = im[first : n + 1].sum(axis=0)
        if stop % _SUM_CHUNK == 0 or stop == n_panels:
            re_total += float(re[0] @ _GL_WEIGHTS)
            im_total += float(im[0] @ _GL_WEIGHTS)
    return complex(re_total, im_total)


@dataclass(frozen=True)
class DecayScanReport:
    rows: tuple  # (lambda, region, x_dist, t_dist, abs_K, decay_product)
    v2_ratio_range: tuple  # (min, max) of |x-x'+t*theta-t'*theta'| / |x-x'| on V2

    def max_decay_product(self, lam: float | None = None) -> float:
        sel = [r[5] for r in self.rows if r[1] in ("V1", "V2") and (lam is None or r[0] == lam)]
        return max(sel) if sel else 0.0


def _stationary_pairs(rng, lam, width, profile):
    """Deterministic pairs whose phase is stationary inside supp psi.

    The empirical sup of the decay product is attained near stationary
    configurations; sweeping the stationary point across the support makes
    that sup stable across lambda instead of depending on rare random hits.
    Returns the 6 x n rows (x, x', t, t', theta, theta') of _sample_regions.
    """
    # Scalar slopes: numpy's array pow rounds unlike its scalar pow.
    slope = np.array([abs(float(profile.phi_prime(lam * xi_s)))
                      for xi_s in np.linspace(0.55, 1.95, 16)])
    dx = np.broadcast_to([0.5, 1.0, 1.8], (16, 3))
    with np.errstate(divide="ignore"):
        dt = dx / slope[:, None]
    # A zero slope gives dt = inf, so this one test skips it too.
    keep = ~(dt > 1.99)
    dx, dt = dx[keep], dt[keep]
    theta = rng.uniform(0, width, (len(dx), 2))
    return np.vstack([-dx / 2.0, dx / 2.0, dt / 2.0, -dt / 2.0, theta.T])


def _sample_regions(rng, lam, sigma, per_region, profile):
    """Seeded pairs from W x W with per-region quotas.

    Near-stationary pairs fill the quotas first (they dominate the sup of
    the decay product); random batches of 4096 pairs fill the rest.  Maps
    each region to its 6 x per_region rows (x, x', t, t', theta, theta'),
    in the order the values are drawn.
    """
    width = lam ** (-sigma)
    parts = {name: [] for name in _REGIONS}
    need = dict.fromkeys(_REGIONS, per_region)
    batches = (np.vstack([rng.uniform(-1, 1, (4, 4096)), rng.uniform(0, width, (2, 4096))])
               for _ in range(2000))
    for batch in itertools.chain([_stationary_pairs(rng, lam, width, profile)], batches):
        x, xp, t, tp = batch[:4]
        lab = _region_labels(np.abs(x - xp), np.abs(t - tp), width)
        for name in _REGIONS:
            idx = np.nonzero(lab == name)[0][: need[name]]
            parts[name].append(batch[:, idx])
            need[name] -= len(idx)
        if not any(need.values()):
            return {name: np.hstack(p) for name, p in parts.items()}
    raise DispmaxError(
        f"region sampling failed to fill the {per_region}-pair quotas at lambda {lam:g}"
    )


def decay_bound_scan(
    profile: DispersionProfile,
    sigma: float,
    lam_list,
    samples_per_region: int = 200,
    seed: int = 0,
) -> DecayScanReport:
    """Empirical check of the (lambda |x - x'|)^(-1/2) kernel decay.

    For each lambda, draws seeded (w, w') pairs per region; on V1 and V2 the
    decay product |K| * (lambda |x - x'|)^(1/2) is recorded, on V3 only the
    trivial bound.  Also records the V2 comparability ratio
    |x - x' + t*theta - t'*theta'| / |x - x'|.
    """
    if samples_per_region < 1:
        raise ConfigError(f"samples_per_region={samples_per_region} must be at least 1")
    check_sigma(sigma)
    lam_list = list(lam_list)
    for lam in lam_list:
        check_lambda(lam)
    if not lam_list or any(b <= a for a, b in zip(lam_list, lam_list[1:])):
        raise ConfigError("lambda list must be nonempty and ascending")
    rows = []
    ratio_lo, ratio_hi = np.inf, -np.inf
    rng = np.random.default_rng(seed)
    for lam in lam_list:
        quota = _sample_regions(rng, lam, sigma, samples_per_region, profile)
        for name in _REGIONS:
            x, xp, t, tp, th, thp = quota[name]
            shift, dt = (x - xp) + t * th - tp * thp, t - tp
            absk = np.array([abs(kernel_value(s, d, lam, profile)) for s, d in zip(shift, dt)])
            dx = np.abs(x - xp)
            product = absk * np.sqrt(lam * dx) if name != "V3" else np.zeros_like(dx)
            if name == "V2":
                ratio = np.abs(shift) / dx
                ratio_lo = min(ratio_lo, float(ratio.min()))
                ratio_hi = max(ratio_hi, float(ratio.max()))
            rows.extend((float(lam), name, *r) for r in zip(
                dx.tolist(), np.abs(dt).tolist(), absk.tolist(), product.tolist()))
    return DecayScanReport(rows=tuple(rows), v2_ratio_range=(ratio_lo, ratio_hi))


@dataclass(frozen=True)
class PhaseSpec:
    """Phase/amplitude pair for the oscillatory-decay checker."""

    name: str
    a: float
    b: float
    phi: Callable
    derivs: dict = field(repr=False)  # order -> callable, orders 1 and 2
    psi: Callable = field(repr=False)


def standard_phases() -> list[tuple[PhaseSpec, int]]:
    """The three reference phases: linear (k=1), curved without and with a
    stationary point (k=2)."""
    # Smooth weight equal to 1 at x = 1, decaying to 0 at x = 2; its nonzero
    # endpoint value keeps the leading lambda^(-1) boundary term alive.
    psi_half = lambda x: 1.0 - _smooth_step(np.asarray(x, dtype=float) - 1.0)
    lin = PhaseSpec(
        "linear", 1.0, 2.0,
        phi=lambda x: np.asarray(x, dtype=float),
        derivs={1: lambda x: np.ones_like(np.asarray(x, dtype=float)),
                2: lambda x: np.zeros_like(np.asarray(x, dtype=float))},
        psi=psi_half,
    )
    half_square = lambda x: 0.5 * np.asarray(x, dtype=float) ** 2
    half_square_derivs = {1: lambda x: np.asarray(x, dtype=float),
                          2: lambda x: np.ones_like(np.asarray(x, dtype=float))}
    quad = PhaseSpec("quadratic-offset", 1.0, 2.0, phi=half_square,
                     derivs=half_square_derivs, psi=psi_half)
    quad0 = PhaseSpec("quadratic-stationary", -1.0, 1.0, phi=half_square,
                      derivs=half_square_derivs, psi=psi0)
    return [(lin, 1), (quad, 2), (quad0, 2)]


def van_der_corput_check(phase: PhaseSpec, lam_list, k: int):
    """Oscillatory-decay ratios |int exp(i*lam*phi) psi| * lam^(1/k) / norm.

    Validates the hypothesis |phi^(k)| >= 1 on (a, b) (and monotone phi'
    when k = 1) on a sample grid, then evaluates the integral by the
    adaptive panel quadrature for each lambda.  Returns rows
    (lambda, abs_integral, normalized_ratio).
    """
    if k not in (1, 2):
        raise ConfigError("derivative order k must be 1 or 2")
    xs = np.linspace(phase.a, phase.b, 2049)
    dk = np.abs(np.asarray(phase.derivs[k](xs), dtype=float))
    if dk.min() < 1.0 - 1e-9:
        raise HypothesisError(
            f"|phi^({k})| drops to {dk.min():g} < 1 on ({phase.a}, {phase.b})"
        )
    if k == 1:
        d1 = np.asarray(phase.derivs[1](xs), dtype=float)
        diffs = np.diff(d1)
        if (diffs > 1e-12).any() and (diffs < -1e-12).any():
            raise HypothesisError("phi' is not monotonic on (a, b)")

    dense = np.linspace(phase.a, phase.b, 8193)
    dpsi = (phase.psi(dense + 1e-6) - phase.psi(dense - 1e-6)) / 2e-6
    denom = float(np.trapezoid(np.abs(dpsi), dense) + np.max(np.abs(phase.psi(dense))))

    rows = []
    for lam in lam_list:
        dphase = lambda x: lam * np.asarray(phase.derivs[1](x), dtype=float)
        a, b = _refine_panels([(phase.a, phase.b)], dphase)
        # kernel_value's rule, but its own sum: it integrates phase.psi, not
        # psi^2, and this one np.sum order fixes van_der_corput.csv's bits.
        nodes, half = _gauss_nodes(a, b)
        vals = np.exp(1j * lam * phase.phi(nodes)) * phase.psi(nodes)
        integral = complex(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))
        ratio = abs(integral) * lam ** (1.0 / k) / denom
        rows.append((float(lam), abs(integral), float(ratio)))
    return rows
