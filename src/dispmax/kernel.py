"""The TT* oscillatory kernel, its region decomposition, and lemma checkers.

The kernel is K_lambda(w, w') = int exp(i*phase(lambda*xi)) psi(xi)^2 dxi
over the support of psi, with phase(xi) = (x - x' + t*theta - t'*theta')*xi
+ (t - t')*Phi(xi).  Quadrature bisects panels until the phase variation per
panel drops below a fixed budget, then applies a 128-point Gauss rule per
panel; the oracle is the same scheme at 10x panel density.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DispmaxError, HypothesisError, QuadratureError
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
@functools.cache
def _psi_sq_table():
    """psi^2 at 2^20 + 1 uniform points of [0.5, 2] and its forward differences."""
    table = psi(np.linspace(0.5, 2.0, 2**20 + 1)) ** 2
    table[0] = table[-1] = 0.0
    return table, np.diff(table)


def _psi_sq(xi):
    """psi(xi)^2 for |xi| in [0.5, 2] by uniform-grid linear interpolation."""
    table, diff = _psi_sq_table()
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


def _phi_at(profile: DispersionProfile, lam: float, nodes: np.ndarray) -> np.ndarray:
    # The power branch avoids the generic branchy evaluation.  Its rounding is
    # part of the output: routing it through profile.phi moves kernel_scan.csv.
    if profile.kind == "power":
        if profile.a == 2.0:
            return (lam * lam) * (nodes * nodes)
        return lam**profile.a * np.abs(nodes) ** profile.a
    return np.asarray(profile.phi(lam * nodes), dtype=float)


@dataclass(frozen=True)
class SpaceTimePoint:
    x: float
    t: float
    theta: float


@dataclass(frozen=True)
class KernelQuery:
    w: SpaceTimePoint
    w_prime: SpaceTimePoint
    lam: float
    profile: DispersionProfile

    def __post_init__(self):
        if not self.lam >= 2.0:
            raise ValueError("lambda must be >= 2")


def _shift(w: SpaceTimePoint, wp: SpaceTimePoint) -> float:
    """x - x' + t*theta - t'*theta', the coefficient of xi in the phase."""
    return (w.x - wp.x) + w.t * w.theta - wp.t * wp.theta


def phase_value(xi, w: SpaceTimePoint, wp: SpaceTimePoint, profile: DispersionProfile):
    """(x - x' + t*theta - t'*theta')*xi + (t - t')*Phi(xi)."""
    return _shift(w, wp) * np.asarray(xi, dtype=float) + (w.t - wp.t) * profile.phi(xi)


def _region_labels(dx, dt, width):
    """V1 where |x - x'| < 4|t - t'|, else V2 where |x - x'| >= 4*width, else V3."""
    return np.where(dx < 4.0 * dt, "V1", np.where(dx >= 4.0 * width, "V2", "V3"))


def classify_region(w: SpaceTimePoint, wp: SpaceTimePoint, lam: float, sigma: float) -> str:
    """Region label "V1", "V2" or "V3" of the pair (w, w') at scale lambda."""
    return _region_labels(abs(w.x - wp.x), abs(w.t - wp.t), lam ** (-sigma)).item()


def _refine_panels(intervals, dphase: Callable):
    """Subdivide until phase variation per panel is below PANEL_PHASE_BUDGET.

    Each starting interval is first cut into _BASE_SPLIT uniform panels;
    panels whose estimated variation exceeds the budget are then split
    proportionally, up to PANEL_LIMIT panels in all.
    """
    a_parts, b_parts = [], []
    for lo, hi in intervals:
        edges = np.linspace(lo, hi, _BASE_SPLIT + 1)
        a_parts.append(edges[:-1])
        b_parts.append(edges[1:])
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    for _ in range(64):
        mid = 0.5 * (a + b)
        da, dm, db = np.abs(dphase(a)), np.abs(dphase(mid)), np.abs(dphase(b))
        # Simpson estimate of int |phase'| over the panel, floored at the
        # worst-slope bound times half the width so sign changes of phase'
        # cannot hide variation.
        var = (b - a) * np.maximum(
            (da + 4.0 * dm + db) / 6.0, 0.5 * np.maximum(da, np.maximum(dm, db))
        )
        if (var <= PANEL_PHASE_BUDGET).all():
            return a, b
        n_sub = np.maximum(1, np.ceil(var / PANEL_PHASE_BUDGET).astype(np.int64))
        total = int(n_sub.sum())
        if total > PANEL_LIMIT:
            raise QuadratureError(
                f"panel budget {PANEL_LIMIT} exceeded while resolving the oscillatory phase"
            )
        width = (b - a) / n_sub
        rep_w = np.repeat(width, n_sub)
        offsets = np.arange(total) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
        a = np.repeat(a, n_sub) + offsets * rep_w
        b = a + rep_w
    raise QuadratureError("panel refinement failed to converge")


def kernel_value(query: KernelQuery, density: int = 1) -> complex:
    """Adaptive Gauss quadrature of the TT* kernel; density=10 is the oracle."""
    w, wp, lam, profile = query.w, query.w_prime, query.lam, query.profile
    shift = _shift(w, wp)
    dt = w.t - wp.t

    def dphase(xi):
        return shift * lam + dt * lam * profile.phi_prime(lam * xi)

    a, b = _refine_panels(_SUPPORT, dphase)
    if density > 1:
        offs = np.arange(density) / density
        width = (b - a) / density
        a = (a[:, None] + offs[None, :] * (b - a)[:, None]).ravel()
        b = a + np.repeat(width, density)
    re_total = 0.0
    im_total = 0.0
    chunk = 4096  # keeps the per-chunk arrays cache-resident
    for start in range(0, len(a), chunk):
        aa = a[start : start + chunk]
        bb = b[start : start + chunk]
        half = 0.5 * (bb - aa)
        nodes = 0.5 * (aa + bb)[:, None] + half[:, None] * _GL_NODES[None, :]
        phase = _phi_at(profile, lam, nodes)
        phase *= dt
        phase += (shift * lam) * nodes
        amp = _psi_sq(nodes)
        amp *= half[:, None]
        re = np.cos(phase)
        re *= amp
        im = np.sin(phase)
        im *= amp
        re_total += float(re.sum(axis=0) @ _GL_WEIGHTS)
        im_total += float(im.sum(axis=0) @ _GL_WEIGHTS)
    return complex(re_total, im_total)


def split_u1_u2(
    w: SpaceTimePoint,
    wp: SpaceTimePoint,
    lam: float,
    profile: DispersionProfile,
):
    """Partition of supp psi into the small-|Phi'| set U1 and its complement U2.

    U1 = { xi : |x - x' + t*theta - t'*theta'| >= 2 |t - t'| |Phi'(lambda*xi)| },
    intersected with each half-line of the support; with Phi' monotone this
    is a single subinterval per half-line.  Returns [((a, b), "U1"|"U2"), ...].
    """
    shift = abs(_shift(w, wp))
    dt = abs(w.t - wp.t)
    pieces = []
    for lo, hi in _SUPPORT:
        if dt == 0.0:
            pieces.append(((lo, hi), "U1"))
            continue
        xi = np.linspace(lo, hi, 512)
        g = 2.0 * dt * np.abs(np.asarray(profile.phi_prime(lam * xi), dtype=float))
        diffs = np.diff(g)
        if (diffs > 1e-12).any() and (diffs < -1e-12).any():
            raise HypothesisError("|Phi'| is not monotone on a support half-line")
        below = g <= shift
        if below.all():
            pieces.append(((lo, hi), "U1"))
        elif not below.any():
            pieces.append(((lo, hi), "U2"))
        else:
            # Imported here so that importing dispmax never loads scipy.
            from scipy.optimize import brentq

            root = brentq(
                lambda s: 2.0 * dt * abs(float(profile.phi_prime(lam * s))) - shift, lo, hi
            )
            if below[0]:
                pieces.append(((lo, root), "U1"))
                pieces.append(((root, hi), "U2"))
            else:
                pieces.append(((lo, root), "U2"))
                pieces.append(((root, hi), "U1"))
    return pieces


@dataclass(frozen=True)
class DecayScanReport:
    rows: tuple  # (lambda, region, x_dist, t_dist, abs_K, decay_product)
    v2_ratio_range: tuple  # (min, max) of |x-x'+t*theta-t'*theta'| / |x-x'| on V2

    def max_decay_product(self, lam: float | None = None) -> float:
        sel = [r[5] for r in self.rows if r[1] in ("V1", "V2") and (lam is None or r[0] == lam)]
        return max(sel) if sel else 0.0


def _stationary_pairs(rng, lam, width, profile):
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
            w = SpaceTimePoint(-dx_target / 2.0, dt / 2.0, th)
            wp = SpaceTimePoint(dx_target / 2.0, -dt / 2.0, thp)
            pairs.append((w, wp))
    return pairs


def _sample_regions(rng, lam, sigma, per_region, profile):
    """Seeded (w, w') pairs from W x W with per-region quotas.

    Near-stationary pairs are inserted first (they dominate the sup of the
    decay product); the remainder of each quota is rejection-sampled.
    """
    width = lam ** (-sigma)
    quota = {lab: [] for lab in ("V1", "V2", "V3")}
    for w, wp in _stationary_pairs(rng, lam, width, profile):
        lab = classify_region(w, wp, lam, sigma)
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
        lab = _region_labels(np.abs(x - xp), np.abs(t - tp), width)
        for name in quota:
            need = per_region - len(quota[name])
            if need <= 0:
                continue
            idx = np.nonzero(lab == name)[0][:need]
            for i in idx:
                quota[name].append(
                    (SpaceTimePoint(x[i], t[i], th[i]), SpaceTimePoint(xp[i], tp[i], thp[i]))
                )
    return quota


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
    lam_list = list(lam_list)
    if any(b <= a for a, b in zip(lam_list, lam_list[1:])):
        raise ValueError("lambda list must be ascending")
    rows = []
    ratio_lo, ratio_hi = np.inf, -np.inf
    rng = np.random.default_rng(seed)
    for lam in lam_list:
        quota = _sample_regions(rng, lam, sigma, samples_per_region, profile)
        for name in ("V1", "V2", "V3"):
            for w, wp in quota[name]:
                absk = abs(kernel_value(KernelQuery(w, wp, lam, profile)))
                dx = abs(w.x - wp.x)
                dt = abs(w.t - wp.t)
                if name in ("V1", "V2"):
                    product = absk * np.sqrt(lam * dx)
                else:
                    product = 0.0
                if name == "V2":
                    ratio = abs(_shift(w, wp)) / dx
                    ratio_lo = min(ratio_lo, ratio)
                    ratio_hi = max(ratio_hi, ratio)
                rows.append((float(lam), name, dx, dt, absk, float(product)))
    return DecayScanReport(rows=tuple(rows), v2_ratio_range=(ratio_lo, ratio_hi))


@dataclass(frozen=True)
class PhaseSpec:
    """Phase/amplitude pair for the oscillatory-decay checker."""

    name: str
    a: float
    b: float
    phi: Callable
    derivs: dict = field(repr=False)  # order -> callable, orders 1 and 2
    psi: Callable = field(repr=False, default=None)


def _half_step_down(a, b):
    """Smooth weight equal to 1 at a, decaying to 0 at b; nonzero endpoint
    value keeps the leading lambda^(-1) boundary term alive."""
    span = b - a

    def psi(x):
        return 1.0 - _smooth_step((np.asarray(x, dtype=float) - a) / span)

    return psi


def standard_phases() -> list[tuple[PhaseSpec, int]]:
    """The three reference phases: linear (k=1), curved without and with a
    stationary point (k=2)."""
    psi_half = _half_step_down(1.0, 2.0)
    lin = PhaseSpec(
        "linear", 1.0, 2.0,
        phi=lambda x: np.asarray(x, dtype=float),
        derivs={1: lambda x: np.ones_like(np.asarray(x, dtype=float)),
                2: lambda x: np.zeros_like(np.asarray(x, dtype=float))},
        psi=psi_half,
    )
    quad = PhaseSpec(
        "quadratic-offset", 1.0, 2.0,
        phi=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
        derivs={1: lambda x: np.asarray(x, dtype=float),
                2: lambda x: np.ones_like(np.asarray(x, dtype=float))},
        psi=psi_half,
    )
    quad0 = PhaseSpec(
        "quadratic-stationary", -1.0, 1.0,
        phi=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
        derivs={1: lambda x: np.asarray(x, dtype=float),
                2: lambda x: np.ones_like(np.asarray(x, dtype=float))},
        psi=psi0,
    )
    return [(lin, 1), (quad, 2), (quad0, 2)]


def van_der_corput_check(phase: PhaseSpec, lam_list, k: int):
    """Oscillatory-decay ratios |int exp(i*lam*phi) psi| * lam^(1/k) / norm.

    Validates the hypothesis |phi^(k)| >= 1 on (a, b) (and monotone phi'
    when k = 1) on a sample grid, then evaluates the integral by the
    adaptive panel quadrature for each lambda.  Returns rows
    (lambda, abs_integral, normalized_ratio).
    """
    if k not in (1, 2):
        raise ValueError("derivative order k must be 1 or 2")
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
        half = 0.5 * (b - a)
        nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = np.exp(1j * lam * phase.phi(nodes)) * phase.psi(nodes)
        integral = complex(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))
        ratio = abs(integral) * lam ** (1.0 / k) / denom
        rows.append((float(lam), abs(integral), float(ratio)))
    return rows


def hls_bilinear_check(g: np.ndarray, h: np.ndarray, q: float):
    """Discrete check of the bilinear |x - x'|^(-1/2) inequality.

    g and h are nonnegative samples on I x [-1, 1] (shape nx x nt).  The
    double integral excludes the diagonal band |x - x'| < one x-grid step
    (the singular weight is integrable; the excluded mass is O(sqrt(step))).
    Returns (lhs, rhs, ratio) with rhs the product of mixed L^q'_x L^1_t norms.
    """
    if not 1.0 <= q <= 4.0:
        raise ValueError("q must lie in [1, 4]")
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.ndim != 2 or h.ndim != 2 or g.shape[0] != h.shape[0]:
        raise ValueError("g and h must be 2-D with matching x-resolution")
    nx = g.shape[0]
    dx = 2.0 / nx
    x = -1.0 + (np.arange(nx) + 0.5) * dx
    big_g = g.sum(axis=1) * (2.0 / g.shape[1])
    big_h = h.sum(axis=1) * (2.0 / h.shape[1])
    diff = np.abs(x[:, None] - x[None, :])
    weight = np.where(diff >= dx * (1 - 1e-12), diff, np.inf) ** -0.5
    lhs = float(big_g @ weight @ big_h * dx * dx)
    qp = q / (q - 1.0) if q > 1.0 else np.inf
    if np.isinf(qp):
        norm = lambda v: float(np.max(v))
    else:
        norm = lambda v: float((np.sum(v**qp) * dx) ** (1.0 / qp))
    rhs = norm(big_g) * norm(big_h)
    ratio = lhs / rhs if rhs > 0 else 0.0
    return lhs, rhs, ratio
