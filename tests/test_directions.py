"""Tests for direction sets, box counting, dimension fits, and covers."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmax import directions
from dispmax.config import ExperimentConfig
from dispmax.directions import (
    DirectionSet,
    box_count,
    cover_set,
    make_cantor,
    make_intervals,
    make_points,
    parse_direction_spec,
)
from dispmax.errors import MAX_COUNT, ConfigError, RangeError
from dispmax.experiments import run_dimension_report


def reference_cantor(m, r, depth):
    """Components of the depth-d Cantor generation, by the nested-loop build.

    The generation and merge loops are the pure-Python ones make_cantor used
    before it grew its endpoint arrays in numpy; kept as the oracle.
    """
    comps = [(0.0, 1.0)]
    gap = (1.0 - r) / (m - 1)  # relative offset between consecutive piece starts
    for _ in range(depth):
        nxt = []
        for a, b in comps:
            length = b - a
            for i in range(m):
                start = a + i * gap * length
                nxt.append((start, start + r * length))
        comps = nxt
    # r = 1/m makes adjacent pieces touch; merge so components stay disjoint
    merged = []
    for a, b in sorted(comps):
        if merged and a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def reference_sample(ds, per_component):
    """ds.sample by the per-component linspace that DirectionSet.sample used
    before it took the endpoint arrays in one call; kept as the oracle."""
    return np.unique(np.concatenate([np.linspace(a, b, per_component)
                                     for a, b in ds.components.tolist()]))


def reference_cover(ds, width):
    """The cover by the nested sweep over every component, as _greedy_cover
    ran it before it bisected past covered components; kept as the oracle."""
    tol = width * 1e-9
    cover = []
    cursor = -np.inf  # everything <= cursor is covered
    for a, b in ds.components.tolist():
        while b > cursor + tol:
            start = max(a, cursor)
            cover.append((start, start + width))
            cursor = start + width
    return tuple(cover)


def assert_same_components(ds, expected):
    assert ds.components.dtype == np.float64 and ds.components.shape == (len(expected), 2)
    assert ds.components.tobytes() == np.array(expected).tobytes()


class TestConstructors:
    def test_points_sorted_and_deduplicated(self):
        ds = make_points([0.5, -0.5, 0.5, 0.0])
        assert_same_components(ds, [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5)])

    @pytest.mark.parametrize("spec", ["point:0", "points:-0.5,0,0.25", "interval:-0.7,0.3",
                                      "cantor:2,0.3,5", "cantor:3,0.3333333333333333,4"])
    def test_components_are_a_read_only_endpoint_array(self, spec):
        comps = parse_direction_spec(spec).components
        assert comps.dtype == np.float64 and comps.ndim == 2 and comps.shape[1] == 2
        with pytest.raises(ValueError, match="read-only"):
            comps[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            comps[:] = 0.0

    def test_rejects_escaping_sets(self):
        with pytest.raises(ValueError):
            make_points([1.5])
        with pytest.raises(ValueError):
            make_intervals([(-2.0, 0.0)])

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValueError):
            make_intervals([(0.0, 0.5), (0.4, 1.0)])

    def test_rejects_oversized_ratio(self):
        with pytest.raises(ValueError):
            make_cantor(2, 0.6, 3)

    @pytest.mark.parametrize("m, depth, message", [(1, 3, "at least 2 pieces"),
                                                   (2, -1, "depth must be nonnegative")])
    def test_rejects_too_few_pieces_and_negative_depth(self, m, depth, message):
        with pytest.raises(ConfigError, match=message):
            make_cantor(m, 0.3, depth)

    @pytest.mark.parametrize("m, r, depth", [(2, 0.3, 25), (3, 0.3, 16), (2, 0.3, 10**9),
                                             (2, 0.3, 10**400), (MAX_COUNT + 1, 1e-8, 1)])
    def test_cantor_above_size_cap_is_refused(self, m, r, depth):
        # refused before any interval is built: depth 10^9 would never finish
        with pytest.raises(ConfigError, match=f"more than {MAX_COUNT}"):
            make_cantor(m, r, depth)

    def test_cantor_expansion_count(self):
        ds = make_cantor(2, 1.0 / 3.0, 8)
        assert len(ds.components) == 256
        lengths = [b - a for a, b in ds.components]
        assert np.allclose(lengths, 3.0**-8)

    @pytest.mark.parametrize("m, depth", [(2, 3), (3, 5), (7, 3)])
    def test_touching_cantor_pieces_merge_into_one_interval(self, m, depth):
        # r = 1/m: each generation's pieces touch, so the set is [0, 1] itself
        ds = make_cantor(m, 1.0 / m, depth)
        assert_same_components(ds, [(0.0, 1.0)])
        unit = make_intervals([(0.0, 1.0)])
        for delta in (1.0, 0.3, 1.0 / m**depth, 1e-3):
            assert box_count(ds, delta) == box_count(unit, delta)

    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    @pytest.mark.parametrize("ratio", ["touching", "just-below-touching", "0.1", "0.6/m"])
    def test_cantor_matches_nested_loop_bit_for_bit(self, m, ratio):
        r = {"touching": 1.0 / m, "just-below-touching": float(np.nextafter(1.0 / m, 0.0)),
             "0.1": 0.1, "0.6/m": 0.6 / m}[ratio]
        for depth in range(7):
            assert_same_components(make_cantor(m, r, depth), reference_cantor(m, r, depth))

    @pytest.mark.parametrize("spec, args", [
        ("cantor:2,0.3333333333333333,8", (2, 0.3333333333333333, 8)),  # converge-cantor's set
        ("cantor:2,0.3,14", (2, 0.3, 14)),
    ])
    def test_parsed_cantor_matches_nested_loop_bit_for_bit(self, spec, args):
        assert_same_components(parse_direction_spec(spec), reference_cantor(*args))

    @pytest.mark.parametrize("build, message", [
        # the first faulty component is named, even where a later one escapes
        (lambda: make_intervals([(0.5, 0.2), (0.7, 2.0)]), r"interval \[0.5, 0.2\] is reversed$"),
        # a component both reversed and escaping is named for the escape
        (lambda: make_intervals([(3.0, 2.0)]), r"interval \[3.0, 2.0\] escapes \[-1, 1\]"),
        (lambda: make_points([0.0, float("nan")]), r"interval \[nan, nan\] escapes .* not finite"),
        (lambda: make_intervals([(0.0, float("nan"))]), r"interval \[0.0, nan\] escapes"),
        (lambda: make_points([]), "must be nonempty"),
        (lambda: DirectionSet(np.array([[0.5, 0.6], [0.0, 0.1]])), "must be sorted and disjoint"),
        # the constructor is the one check: a reversed interval was stored unchecked
        # and sampled as [0.2, 0.35, 0.5]
        (lambda: DirectionSet(((0.5, 0.2),)), r"^interval \[0.5, 0.2\] is reversed$"),
        (lambda: DirectionSet(((0.0, 0.5), (0.7, 1.5))),
         r"^interval \[0.7, 1.5\] escapes \[-1, 1\] or is not finite$"),
        (lambda: DirectionSet(((0.0, float("inf")),)), r"^interval \[0.0, inf\] escapes"),
        (lambda: DirectionSet(()), "^direction set must be nonempty$"),
        (lambda: DirectionSet(np.empty((0, 2))), "^direction set must be nonempty$"),
        (lambda: DirectionSet([0.1, 0.2, 0.3]),
         r"^components must be \(a, b\) pairs, got shape \(3,\)$"),
        # not read as three pairs
        (lambda: DirectionSet(np.zeros((2, 3))),
         r"^components must be \(a, b\) pairs, got shape \(2, 3\)$"),
        (lambda: DirectionSet(np.zeros((2, 2, 1))), r"got shape \(2, 2, 1\)$"),
        (lambda: DirectionSet(0.5), r"got shape \(\)$"),
        (lambda: DirectionSet([(0.0, 0.1), (0.5,)]), r"^components must be \(a, b\) pairs of numbers: "),
        (lambda: DirectionSet([("a", "b")]), r"^components must be \(a, b\) pairs of numbers: "),
        # dataclasses.replace runs the constructor's check again
        (lambda: dataclasses.replace(make_points([0.0]), components=((0.5, 0.2),)), "is reversed$"),
        (lambda: dataclasses.replace(make_points([0.0]), components=((0.0, 0.5), (0.4, 0.6))),
         "must be sorted and disjoint"),
        (lambda: dataclasses.replace(make_points([0.0]), components=[0.1, 0.2]), "got shape"),
    ], ids=["reversed-before-escaping", "reversed-and-escaping", "nan-point", "nan-end",
            "empty", "unsorted", "constructor-reversed", "constructor-escaping",
            "constructor-infinite", "constructor-empty", "constructor-empty-array",
            "constructor-flat", "constructor-three-columns", "constructor-three-axes",
            "constructor-scalar", "constructor-ragged", "constructor-text", "replace-reversed",
            "replace-overlapping", "replace-flat"])
    def test_validation_names_the_first_fault(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    @pytest.mark.parametrize("components", [
        ((-0.5, -0.2), (0.1, 0.7)),
        [[-0.5, -0.2], [0.1, 0.7]],
        np.array([[-0.5, -0.2], [0.1, 0.7]]),
    ], ids=["tuple-of-pairs", "list", "array"])
    def test_constructor_takes_pairs_as_the_builders_do(self, components):
        # a tuple of pairs raised AttributeError from sample: the constructor stored it as given
        ds = DirectionSet(components)
        assert_same_components(ds, make_intervals([(-0.5, -0.2), (0.1, 0.7)]).components.tolist())
        assert ds == make_intervals([(0.1, 0.7), (-0.5, -0.2)])
        assert ds.sample(3).tobytes() == reference_sample(ds, 3).tobytes()

    def test_constructor_copies_and_freezes(self):
        given = np.array([[0.0, 0.5]])
        ds = DirectionSet(given)
        assert given.flags.writeable and not ds.components.flags.writeable
        given[0, 1] = 0.25  # the caller's array stays its own
        assert ds.components.tolist() == [[0.0, 0.5]]

    def test_parse_round_trip(self):
        assert parse_direction_spec("point:0") == make_points([0.0])
        assert parse_direction_spec("points:0,0.5,1") == make_points([0.0, 0.5, 1.0])
        assert parse_direction_spec("interval:0,1") == make_intervals([(0.0, 1.0)])
        assert parse_direction_spec("cantor:2,0.333333,4") == make_cantor(2, 0.333333, 4)
        assert parse_direction_spec("point:0") != make_points([0.5])
        assert parse_direction_spec("point:0") != make_points([0.0, 0.5])
        assert parse_direction_spec("point:0") != (0.0, 0.0)
        with pytest.raises(ValueError):
            parse_direction_spec("blob:1")


class TestSample:
    @pytest.mark.parametrize("per_component", [1, 2, 3, 4, 17, 129])
    @pytest.mark.parametrize("spec", [
        "point:0", "point:-0.3", "points:-0.5,0,0.25,0.9", "interval:0,1", "interval:-0.7,0.3",
        "interval:0.2,0.2", "cantor:2,0.3333333333333333,8", "cantor:3,0.3,4",
        "cantor:3,0.2,5", "cantor:2,0.3,10",
        # r = 1/m: the touching pieces merge into [0, 1]
        "cantor:2,0.5,3", "cantor:3,0.3333333333333333,4", "cantor:4,0.25,3",
        # pieces of width 1e-17 off 0 round to points; 5e-324 / 3 rounds to a zero step
        "cantor:2,1e-17,1", "cantor:3,1e-17,2", "cantor:2,5e-324,1",
    ])
    def test_matches_per_component_linspace_bit_for_bit(self, spec, per_component):
        ds = parse_direction_spec(spec)
        got, want = ds.sample(per_component), reference_sample(ds, per_component)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("intervals", [
        [(0.0, 0.0), (0.1, 0.7)],
        [(-0.9, -0.2), (0.3, 0.3), (0.5, 0.8)],
        [(-1.0, -0.9), (0.0, 5e-324), (0.5, 0.6)],
    ], ids=["point-then-interval", "point-between-intervals", "zero-step-among-intervals"])
    @pytest.mark.parametrize("per_component", [1, 2, 3, 4, 17, 129])
    def test_points_among_intervals_keep_their_rounding(self, intervals, per_component):
        # one linspace over all rows rounds every row another way once one row has step 0
        ds = make_intervals(intervals)
        assert ds.sample(per_component).tobytes() == reference_sample(ds, per_component).tobytes()


class TestBoxCount:
    def test_single_point(self):
        assert box_count(make_points([0.0]), 0.1) == 1

    def test_unit_interval(self):
        assert box_count(make_intervals([(0.0, 1.0)]), 0.1) == 10

    def test_cantor_matches_closed_form(self):
        ds = make_cantor(2, 1.0 / 3.0, 8)
        for n in range(1, 9):
            assert box_count(ds, 3.0**-n) == 2**n

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            box_count(make_points([0.0]), 0.0)

    @given(
        delta1=st.floats(1e-4, 2.0),
        delta2=st.floats(1e-4, 2.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_delta(self, delta1, delta2, seed):
        rng = np.random.default_rng(seed)
        pts = np.round(rng.uniform(-1, 1, 8), 6)
        ds = make_points(pts)
        lo, hi = sorted((delta1, delta2))
        assert box_count(ds, lo) >= box_count(ds, hi)

    def test_monotone_in_set(self):
        small = make_points([0.0, 0.5])
        big = make_points([0.0, 0.25, 0.5, 0.75])
        for delta in (0.01, 0.1, 0.3, 1.0):
            assert box_count(small, delta) <= box_count(big, delta)


def report_beta(theta, delta_min, delta_max):
    """The fitted dimension that the `dim` command prints for theta."""
    cfg = ExperimentConfig(theta=theta, delta_min=delta_min, delta_max=delta_max)
    return run_dimension_report(cfg).provenance["beta"]


class TestDimension:
    def test_point_is_zero_dimensional(self):
        assert abs(report_beta("point:0", 1e-4, 1e-1)) < 1e-9

    def test_interval_is_one_dimensional(self):
        assert abs(report_beta("interval:0,1", 1e-4, 1e-1) - 1.0) < 0.02

    def test_cantor_dimension(self):
        beta = report_beta("cantor:2,0.3333333333333333,10", 3.0**-9, 3.0**-2)
        assert abs(beta - np.log(2) / np.log(3)) < 0.05

    def test_slope_stays_in_unit_range(self):
        # cantor:2,0.3,1 is the union [0, 0.3] u [0.7, 1]
        for theta in ("points:-0.3,0.1,0.7", "cantor:2,0.3,1", "cantor:3,0.2,6"):
            assert -0.02 <= report_beta(theta, 1e-3, 1e-1) <= 1.02

    def test_report_counts_boxes_once_per_scale(self, monkeypatch):
        cfg = ExperimentConfig(theta="cantor:2,0.3333333333333333,6", n_scales=12)
        calls = []

        def counting_box_count(theta, delta):
            calls.append(delta)
            return box_count(theta, delta)

        monkeypatch.setattr(directions, "box_count", counting_box_count)
        table = run_dimension_report(cfg)
        assert len(calls) == cfg.n_scales
        assert table.column("delta") == calls
        # the printed beta is the fit of the printed rows
        assert table.provenance["beta"] == directions._dimension_fit(table.rows)[0]


class TestCover:
    def test_unit_interval_cover(self):
        res = cover_set(make_intervals([(0.0, 1.0)]), 16.0, 0.5)
        assert res.width == 0.25
        assert res.count == 4

    def test_two_far_points(self):
        res = cover_set(make_points([-1.0, 1.0]), 64.0, 0.5)
        assert res.count == 2
        for (lo, hi), p in zip(res.intervals, (-1.0, 1.0)):
            assert lo <= p <= hi

    def test_cantor_cover_matches_structure(self):
        ds = make_cantor(2, 1.0 / 3.0, 8)
        res = cover_set(ds, 81.0, 1.0)
        assert res.count == 16

    def test_rejects_bad_parameters(self):
        ds = make_points([0.0])
        with pytest.raises(ValueError):
            cover_set(ds, 1.0, 0.5)
        with pytest.raises(ValueError):
            cover_set(ds, 16.0, 0.1)

    def test_oversized_cover_fails_before_building_it(self):
        # 10^12 and 10^20 intervals: the greedy loop would run for days
        ds = make_intervals([(0.0, 1.0)])
        tracemalloc.start()
        t0 = time.process_time()
        try:
            with pytest.raises(RangeError, match="more than 16777216"):
                box_count(ds, 1e-12)
            with pytest.raises(RangeError, match="more than 16777216"):
                cover_set(ds, 1e20, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.process_time() - t0 < 1.0
        assert peak < 1 << 16

    @given(seed=st.integers(0, 2**31), sigma=st.floats(0.25, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_cover_contains_samples(self, seed, sigma):
        rng = np.random.default_rng(seed)
        ds = make_intervals([(-0.9, rng.uniform(-0.8, -0.2)), (0.1, 0.8)])
        res = cover_set(ds, 32.0, sigma)
        samples = ds.sample(200)
        tol = res.width * 1e-9
        for s in samples:
            assert any(lo - tol <= s <= hi + tol for lo, hi in res.intervals)
        for lo, hi in res.intervals:
            assert hi - lo <= res.width * (1 + 1e-12)


@st.composite
def disjoint_components(draw):
    """Sorted, disjoint closed intervals in [-1, 1], points among them."""
    ends = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40, unique=True)))
    comps, i = [], 0
    while i < len(ends):
        if i + 1 < len(ends) and draw(st.booleans()):
            comps.append((ends[i], ends[i + 1]))
            i += 2
        else:
            comps.append((ends[i], ends[i]))
            i += 1
    return make_intervals(comps)


def cover_bytes(intervals):
    return np.array(intervals, dtype=float).reshape(-1, 2).tobytes()


def assert_cover_matches_nested_sweep(ds, width):
    want = reference_cover(ds, width)
    assert cover_bytes(directions._greedy_cover(ds.components, width)) == cover_bytes(want)
    if width <= 2.0:
        assert box_count(ds, width) == len(want)


class TestCoverMatchesNestedSweep:
    """_greedy_cover, box_count and cover_set against reference_cover, bit for bit."""

    @given(ds=disjoint_components(), width=st.floats(1e-4, 4.0),
           lam=st.floats(2.0, 1e4), sigma=st.floats(0.25, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_drawn_sets_and_widths(self, ds, width, lam, sigma):
        assert_cover_matches_nested_sweep(ds, width)
        res = cover_set(ds, lam, sigma)
        assert cover_bytes(res.intervals) == cover_bytes(reference_cover(ds, lam**-sigma))

    @pytest.mark.parametrize("ds", [
        make_intervals([(-0.9, -0.6), (-0.5, -0.1), (0.2, 0.25), (0.7, 1.0)]),
        make_cantor(3, 0.2, 3), make_cantor(2, 0.3, 4),
    ], ids=["intervals", "cantor:3,0.2,3", "cantor:2,0.3,4"])
    def test_widths_equal_to_gaps_and_lengths(self, ds):
        a, b = ds.components.T
        for width in np.unique(np.concatenate([b - a, a[1:] - b[:-1], b[1:] - a[:-1]])):
            if width > 0:
                assert_cover_matches_nested_sweep(ds, float(width))

    def test_cursor_within_tol_of_a_component_end(self):
        # [0, 0.25] takes three width-0.1 intervals, so the cursor stops at
        # 0.1 + 0.1 + 0.1; a component ending at or below edge is covered
        width = 0.1
        tol = width * 1e-9
        cursor = 0.0 + width + width + width
        edge = cursor + tol
        ends = [cursor + k * tol for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 2.0)]
        for end in ends + [np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)]:
            # the next component, which the bisection may skip
            ds = make_intervals([(0.0, 0.25), (0.26, end), (0.5, 0.6)])
            assert_cover_matches_nested_sweep(ds, width)
            # the component the cursor is in
            assert_cover_matches_nested_sweep(make_intervals([(0.0, end), (0.5, 0.6)]), width)

    @given(seed=st.integers(0, 2**31), n=st.integers(1, 200), width=st.floats(1e-4, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_point_sets(self, seed, n, width):
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        assert_cover_matches_nested_sweep(make_points(pts), width)

    @pytest.mark.parametrize("m, depth", [(2, 3), (3, 5), (7, 3)])
    def test_touching_cantor_pieces(self, m, depth):
        for r in (1.0 / m, float(np.nextafter(1.0 / m, 0.0))):
            ds = make_cantor(m, r, depth)
            for width in (1.0, 0.3, 1.0 / m**depth, 1e-3):
                assert_cover_matches_nested_sweep(ds, width)

    def test_deep_cantor(self):
        ds = parse_direction_spec("cantor:2,0.3,12")
        for delta, _ in directions.dimension_table(ds, 1e-4, 1e-1):
            assert_cover_matches_nested_sweep(ds, delta)
        for lam, sigma in ((16.0, 0.5), (1024.0, 1.0), (2.0**20, 1.0), (2.0**20, 0.25)):
            res = cover_set(ds, lam, sigma)
            assert cover_bytes(res.intervals) == cover_bytes(reference_cover(ds, lam**-sigma))
