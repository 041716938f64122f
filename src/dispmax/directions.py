"""Compact direction sets in [-1, 1], exact box counting, and interval covers.

A direction set is one of: a finite point list, a disjoint union of closed
intervals, or a finite-depth iterated-function-system Cantor set (m pieces,
contraction ratio r, expanded to its depth-d interval generation), stored as
one read-only (n, 2) array of sorted, disjoint component endpoints; its
constructor, the one check of a set, refuses anything else and freezes a copy.
All counting and covering is one greedy left-to-right sweep, optimal on the
line, from cover interval to cover interval, bisecting past covered components.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import MAX_COUNT, ConfigError, RangeError, check_integers, check_lambda, check_sigma


def _endpoint_pairs(components) -> np.ndarray:
    """A float64 (n, 2) copy of components, n >= 1, else ConfigError."""
    try:  # ragged pairs and text fail here
        comps = np.array(components, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"components must be (a, b) pairs of numbers: {exc}") from exc
    if comps.size == 0:
        raise ConfigError("direction set must be nonempty")
    if comps.shape[1:] != (2,):
        raise ConfigError(f"components must be (a, b) pairs, got shape {comps.shape}")
    return comps


@dataclass(frozen=True, eq=False)
class DirectionSet:
    components: np.ndarray  # read-only (n, 2) float64: sorted closed (a, b) rows; points have a == b

    def __post_init__(self):
        comps = _endpoint_pairs(self.components)
        a, b = comps.T
        escapes = ~((-1.0 - 1e-12 <= a) & (b <= 1.0 + 1e-12))  # NaN escapes too
        i = np.argmax(escapes | (b < a))  # the first faulty component, or 0
        if escapes[i] or b[i] < a[i]:
            fault = "escapes [-1, 1] or is not finite" if escapes[i] else "is reversed"
            raise ConfigError(f"interval [{a[i]}, {b[i]}] {fault}")
        if np.any(a[1:] <= b[:-1]):
            raise ConfigError("components must be sorted and disjoint")
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)

    def __eq__(self, other):
        return isinstance(other, DirectionSet) and np.array_equal(self.components, other.components)

    def sample(self, per_component: int) -> np.ndarray:
        """Equispaced samples, per_component per interval (its left end if 1)."""
        a, b = self.components.T
        # One zero step makes linspace round every row another way, so zero-step rows go apart.
        flat = (b - a) / max(per_component - 1, 1) == 0
        return np.unique(np.concatenate([np.linspace(a[rows], b[rows], per_component, axis=-1)
                                         for rows in (flat, ~flat)], axis=None))


def make_points(points) -> DirectionSet:
    pts = np.array(sorted(set(float(p) for p in points)))
    return DirectionSet(np.column_stack((pts, pts)))


def make_intervals(intervals) -> DirectionSet:
    """The union of closed intervals given as (a, b) pairs, in any order."""
    comps = _endpoint_pairs(list(intervals))
    return DirectionSet(comps[np.lexsort((comps[:, 1], comps[:, 0]))])


def make_cantor(m: int, r: float, depth: int) -> DirectionSet:
    """IFS Cantor set in [0, 1]: m equally spaced affine copies at ratio r, depth d.

    Each generation is one numpy step.  A parent's pieces lie inside it, in
    order, so the children of ordered, disjoint parents need no sort.
    """
    check_integers(m=m, depth=depth)
    if m < 2:
        raise ConfigError("need at least 2 pieces")
    if not 0.0 < r <= 1.0 / m:
        raise ConfigError(f"ratio must satisfy 0 < r <= 1/m, got r={r}, m={m}")
    if depth < 0:
        raise ConfigError("depth must be nonnegative")
    # m^depth intervals.  As m >= 2, a depth of MAX_COUNT's bit length already
    # passes the cap, so m**depth is formed only for small depths.
    if depth >= MAX_COUNT.bit_length() or m**depth > MAX_COUNT:
        raise ConfigError(f"depth {depth} gives {m}^{depth} intervals, more than {MAX_COUNT}")
    a, b = np.array([0.0]), np.array([1.0])
    offsets = np.arange(m) * ((1.0 - r) / (m - 1))  # relative offset of each piece's start
    for _ in range(depth):
        length = (b - a)[:, None]
        start = a[:, None] + offsets * length
        a, b = start.ravel(), (start + r * length).ravel()
    # r = 1/m makes adjacent pieces touch; merge so components stay disjoint.
    # The ends increase, so a piece joins a run iff it touches its left neighbour.
    ends = np.flatnonzero(a[1:] > b[:-1] + 1e-15)
    return DirectionSet(np.column_stack((a[np.r_[0, ends + 1]], b[np.r_[ends, -1]])))


def parse_direction_spec(spec: str) -> DirectionSet:
    """Parse CLI spec strings: point:0 | points:a,b,... | interval:a,b | cantor:m,r,depth."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "point":
            ds = make_points([float(rest)])
        elif kind == "points":
            ds = make_points(float(v) for v in rest.split(","))
        elif kind == "interval":
            a, b = (float(v) for v in rest.split(","))
            ds = make_intervals([(a, b)])
        elif kind == "cantor":
            m, r, depth = rest.split(",")
            ds = make_cantor(int(m), float(r), int(depth))
        else:
            raise ConfigError(f"unknown direction-set kind {kind!r}")
    except Exception as exc:  # malformed numbers, wrong arity
        raise ConfigError(f"cannot parse direction spec {spec!r}: {exc}") from exc
    return ds


@dataclass(frozen=True)
class CoverResult:
    intervals: tuple  # closed (left, right) covering intervals, left to right
    width: float

    @property
    def count(self) -> int:
        return len(self.intervals)


def _greedy_cover(comps: np.ndarray, width: float) -> tuple:
    """Minimal cover of a union of intervals by closed width-`width` intervals.

    Each cover interval starts at the leftmost point not yet covered, which a
    bisection of the increasing component ends finds; on the line this greedy
    sweep is optimal.  Raises RangeError, before building any interval, where
    the count may pass MAX_COUNT.
    """
    # Each component takes at most ceil(length / width) intervals, plus one
    # for the rounding of the running cursor.
    bound = np.sum(np.ceil(np.diff(comps, axis=1) / width) + 1.0)
    if bound > MAX_COUNT:
        raise RangeError(f"a cover by width-{width:.3g} intervals may take {bound:.3g} "
                         f"of them, more than {MAX_COUNT}")
    tol = width * 1e-9
    starts, ends = comps.T.tolist()
    cover = []
    cursor, i = -np.inf, 0  # everything <= cursor is covered
    while (i := bisect.bisect_right(ends, cursor + tol, i)) < len(ends):
        start = max(starts[i], cursor)
        cursor = start + width
        cover.append((start, cursor))
    return tuple(cover)


def box_count(theta: DirectionSet, delta: float) -> int:
    """Exact minimal number of closed delta-intervals covering the set."""
    if not 0.0 < delta <= 2.0:
        raise ConfigError(f"delta must lie in (0, 2], got {delta}")
    return len(_greedy_cover(theta.components, delta))


def cover_set(theta: DirectionSet, lam: float, sigma: float) -> CoverResult:
    """Greedy minimal cover by closed intervals of width lambda^(-sigma)."""
    check_lambda(lam)
    check_sigma(sigma)
    width = lam ** (-sigma)
    return CoverResult(_greedy_cover(theta.components, width), width)


def dimension_table(theta: DirectionSet, delta_min: float, delta_max: float, n_scales: int = 12):
    """(delta, count) rows backing the dimension fit, for CSV emission."""
    deltas = np.exp(np.linspace(np.log(delta_max), np.log(delta_min), n_scales))
    return [(float(d), box_count(theta, d)) for d in deltas]


def _dimension_fit(rows) -> tuple[float, float]:
    """(beta, fit_residual) of the (delta, count) rows of dimension_table."""
    deltas, counts = np.array(rows).T
    beta, _, resid = _fit_line(np.log(1.0 / deltas), np.log(counts))
    return beta, resid


def _fit_line(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ slope*x + intercept; returns (slope, intercept, RMS residual)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), resid
