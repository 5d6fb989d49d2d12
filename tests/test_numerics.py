import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import draftvalue
from draftvalue.numerics import (
    CHUNK_ELEMENTS,
    SmoothCurve,
    _radii,
    _tricube,
    antitonic_fit,
    loess_fit,
    normal_quantile,
    normal_tail,
    pearson,
    shapiro_wilk,
    t_two_sided,
)
from draftvalue.valuation import SELECTION_GRID


def tricube(u: np.ndarray) -> np.ndarray:
    """Tricube kernel (1 - u^3)^3 on [0, 1], zero outside, of an array u.

    Works in two arrays the size of u, without changing u.
    """
    return _tricube(np.abs(u))


def wls_line_oracle(x, y, w, x0):
    """Independent weighted-least-squares line fit via numpy.polyfit."""
    coeffs = np.polyfit(x, y, 1, w=np.sqrt(w))
    return np.polyval(coeffs, x0)


def brute_force_antitonic(y, w):
    """Minimize sum w (y - m)^2 over all non-increasing m by enumerating
    consecutive-block partitions (feasible ones keep non-increasing means)."""
    n = len(y)
    best, best_sse = None, np.inf
    for cuts in itertools.product([False, True], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        fitted = np.empty(n)
        means = []
        for lo, hi in zip(bounds, bounds[1:]):
            m = np.dot(w[lo:hi], y[lo:hi]) / np.sum(w[lo:hi])
            means.append(m)
            fitted[lo:hi] = m
        if any(b > a for a, b in zip(means, means[1:])):
            continue
        sse = np.sum(w * (y - fitted) ** 2)
        if sse < best_sse:
            best_sse, best = sse, fitted
    return best


class TestLoess:
    def test_constant_data(self, rng):
        x = rng.uniform(0, 10, 30)
        curve = loess_fit(x, np.full(30, 7.5), grid=np.linspace(0, 10, 11))
        assert np.allclose(curve.values, 7.5, atol=1e-12)

    def test_exact_on_lines(self, rng):
        for _ in range(5):
            a, b = rng.normal(size=2) * 5
            x = rng.uniform(-3, 3, 50)
            y = a * x + b
            for span in (0.3, 0.5, 0.75, 1.0):
                curve = loess_fit(x, y, grid=np.linspace(-3, 3, 25), span=span)
                assert np.max(np.abs(curve.values - (a * curve.grid + b))) < 1e-9

    def test_single_point_matches_wls_oracle(self, rng):
        x = rng.uniform(0, 1, 5)
        y = rng.normal(size=5)
        x0 = 0.4
        curve = loess_fit(x, y, grid=[x0], span=1.0)
        d = np.abs(x - x0)
        w = tricube(d / d.max())
        assert curve.values[0] == pytest.approx(wls_line_oracle(x, y, w, x0), abs=1e-9)

    def test_linear_smoother(self, rng):
        x = rng.uniform(0, 10, 40)
        y1 = rng.normal(size=40)
        y2 = rng.normal(size=40)
        grid = np.linspace(0, 10, 15)
        f1 = loess_fit(x, y1, grid=grid).values
        f2 = loess_fit(x, y2, grid=grid).values
        fsum = loess_fit(x, y1 + y2, grid=grid).values
        fscaled = loess_fit(x, 3.5 * y1, grid=grid).values
        assert np.max(np.abs(fsum - (f1 + f2))) < 1e-9
        assert np.max(np.abs(fscaled - 3.5 * f1)) < 1e-9

    def test_all_equal_x_falls_back_to_mean(self):
        # distances all equal at the grid point -> uniform weights; a single
        # repeated x is a degenerate design handled by the local mean
        x = np.array([2.0, 2.0, 2.0])
        y = np.array([1.0, 2.0, 6.0])
        with pytest.raises(ValueError):
            loess_fit(x, y, grid=[2.0])  # fewer than 3 distinct x

    def test_degenerate_local_design(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 5.0])
        y = np.array([0.0, 2.0, 4.0, 6.0, 1.0])
        curve = loess_fit(x, y, grid=[1.0], span=0.6)  # q=3 -> only x=1 locally
        assert curve.values[0] == pytest.approx(4.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            loess_fit([0, 1, 2, 3], [1, 2, 3, 4], grid=[1.0], span=0.25)

    def test_evaluation_interpolates_and_clamps(self):
        from draftvalue.numerics import SmoothCurve

        curve = SmoothCurve(grid=np.array([0.0, 1.0]), values=np.array([0.0, 2.0]))
        assert curve(0.5) == pytest.approx(1.0)
        assert curve(-5.0) == 0.0
        assert curve(7.0) == 2.0

    def test_bad_span_and_degree(self):
        x, y = np.arange(10.0), np.arange(10.0)
        with pytest.raises(ValueError):
            loess_fit(x, y, grid=[1.0], span=0.0)

    def test_tied_rows_at_grid_point_all_count(self):
        # q = 2, but four rows sit at x = 1: the local mean takes all four,
        # whichever order the rows come in
        x = [1, 1, 1, 1, 0, 5]
        y = [0.0, 10.0, 20.0, 30.0, 0.0, 0.0]
        for perm in itertools.permutations(range(6)):
            curve = loess_fit([x[i] for i in perm], [y[i] for i in perm], grid=[1.0], span=0.3)
            assert curve.values[0] == 15.0

    def test_nearest_rows_all_at_one_distance(self):
        # beyond the data the q = 3 nearest rows all sit at x = 0, where the
        # tricube weight would be zero: they are averaged instead
        x = [0, 0, 0, 0, 1, 2]
        y = [1.0, 2.0, 3.0, 4.0, 9.0, 9.0]
        assert loess_fit(x, y, grid=[-1.0], span=0.5).values[0] == pytest.approx(2.5)

    @given(
        st.one_of(
            # dense: ties collapse by bincount over x - min(x)
            st.lists(st.integers(-8, 8), min_size=3, max_size=80),
            # sparse: a range past twice the rows takes np.unique
            st.lists(st.sampled_from([-1000, -7, -1, 0, 3, 4, 2000]), min_size=3, max_size=40),
        ),
        st.integers(1, 3),
        st.floats(0.05, 1.0),
        st.integers(0, 2**31),
    )
    @example(xs=[-3, -3, -3, 0, 0, 5], k=2, span=0.5, seed=0)
    @example(xs=[-1000, -1000, 0, 2000], k=1, span=1.0, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_integer_x_fit_as_their_floats(self, xs, k, span, seed):
        x = np.array(xs)
        assume(len(np.unique(x)) >= 3 and math.ceil(span * len(x)) >= 2)
        y = np.random.default_rng(seed).normal(size=(k, len(x))) * 50 + x
        grid = np.union1d(np.linspace(x.min() - 2.0, x.max() + 2.0, 25), x)
        for response in (y, y[0]):
            integer = loess_fit(x, response, grid=grid, span=span).values
            assert np.array_equal(integer, loess_fit(x.astype(float), response, grid=grid, span=span).values)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.floats(-100, 100, allow_nan=False)),
            min_size=6,
            max_size=40,
        ),
        st.floats(0.05, 1.0),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_row_order_does_not_matter(self, rows, span, random):
        x = np.array([r[0] for r in rows], dtype=float)
        y = np.array([r[1] for r in rows])
        assume(len(np.unique(x)) >= 3 and math.ceil(span * len(x)) >= 2)
        perm = list(range(len(x)))
        random.shuffle(perm)
        grid = np.arange(-1.0, 6.5, 0.5)
        base = loess_fit(x, y, grid=grid, span=span).values
        shuffled = loess_fit(x[perm], y[perm], grid=grid, span=span).values
        scale = max(1.0, np.max(np.abs(y)))
        assert np.allclose(shuffled, base, rtol=1e-12, atol=1e-12 * scale)

    @given(
        st.lists(st.integers(0, 60), min_size=8, max_size=120),
        st.floats(0.05, 1.0),
        st.floats(-3.0, 3.0),
        st.integers(0, 2**31),
    )
    @example(xs=[0, 0, 0, 0, 0, 10, 36, 0, 9], span=0.25, offset=-2.0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_grid_points_fitted_independently(self, xs, span, offset, seed):
        x = np.array(xs, dtype=float)
        distinct = len(np.unique(x))
        assume(distinct >= 3 and math.ceil(span * len(x)) >= 2)
        y = np.random.default_rng(seed).normal(size=len(x)) * 50 + x
        per_chunk = CHUNK_ELEMENTS // distinct
        grid = np.linspace(-5.0, 65.0, 2 * per_chunk + 7) + offset  # three chunks
        values = loess_fit(x, y, grid=grid, span=span).values
        # both sides of each chunk boundary, and points spread over the grid
        edges = [per_chunk - 1, per_chunk, 2 * per_chunk - 1, 2 * per_chunk]
        check = np.union1d(edges, np.linspace(0, len(grid) - 1, 50).astype(int))
        alone = [loess_fit(x, y, grid=grid[j : j + 1], span=span).values[0] for j in check]
        assert np.array_equal(values[check], alone)

    @given(
        st.lists(st.integers(0, 12), min_size=6, max_size=60),
        st.integers(1, 4),
        st.floats(0.05, 1.0),
        st.integers(0, 2**31),
    )
    # at x = 0 the q = 3 nearest rows all lie at distance 0, so the five
    # tied rows get equal weights, and they share one x: the local mean
    @example(xs=[0, 0, 0, 0, 0, 3, 9], k=3, span=0.4, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_stacked_rows_match_one_response_fits(self, xs, k, span, seed):
        x = np.array(xs, dtype=float)
        assume(len(np.unique(x)) >= 3 and math.ceil(span * len(x)) >= 2)
        y = np.random.default_rng(seed).normal(size=(k, len(x))) * 50 + x
        grid = np.arange(-1.0, 13.5, 0.5)
        stacked = loess_fit(x, y, grid=grid, span=span)
        assert stacked.values.shape == (k, len(grid))
        for row, response in zip(stacked.values, y):
            assert np.array_equal(row, loess_fit(x, response, grid=grid, span=span).values)

    @pytest.mark.parametrize("shape", [(2, 9), (10, 2), (1, 2, 10), ()])
    def test_y_must_have_one_value_per_x(self, shape):
        with pytest.raises(ValueError, match="values of x"):
            loess_fit(np.arange(10.0), np.zeros(shape), grid=[1.0])

    def test_stacked_fit_peak_memory(self):
        # three responses over 1,050 pooled ranks of five drafts: each chunk
        # builds one weight matrix for all of them, so only rows of y and of
        # the fitted values grow with the number of responses
        x = np.tile(np.arange(1.0, 211.0), 5)
        y = np.random.default_rng(0).normal(size=(3, len(x))) * 50 + x

        def peak(responses):
            loess_fit(x, responses, grid=SELECTION_GRID)
            tracemalloc.start()
            try:
                loess_fit(x, responses, grid=SELECTION_GRID)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(y) <= peak(y[0]) + 2 * y[0].nbytes

    def test_streamed_rows_match_the_stacked_fit(self):
        # rows built on read, as the surplus rows are: each is dropped before
        # the next is built, so at most one row adds to the one-response peak
        x = np.tile(np.arange(1.0, 211.0), 5)
        y = np.random.default_rng(0).normal(size=(3, len(x))) * 50 + x
        stacked = loess_fit(x, y, grid=SELECTION_GRID).values
        assert np.array_equal(loess_fit(x, iter(list(y)), grid=SELECTION_GRID).values, stacked)

        def peak(responses):
            tracemalloc.start()
            try:
                loess_fit(x, responses(), grid=SELECTION_GRID)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(lambda: y[0])
        assert peak(lambda: map(np.copy, y)) <= peak(lambda: y[0]) + y[0].nbytes

    def test_a_streamed_row_must_have_one_value_per_x(self):
        rows = iter([np.zeros(10), np.zeros(9)])
        with pytest.raises(ValueError, match="values of x"):
            loess_fit(np.arange(10.0), rows, grid=[1.0])

    @given(
        st.one_of(
            st.lists(st.integers(-20, 20), min_size=1, max_size=60),
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                min_size=1,
                max_size=60,
            ),
            st.lists(st.sampled_from([-2.5, 0.1, 0.3, 7.0]), min_size=1, max_size=60),
        ),
        st.floats(0.01, 1.0),
        st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=30),
    )
    @example(xs=[0.0, 0.0, 0.0, 1.0, 1.0, 5.0], span=1.0, at=[-1.0, 0.0, 0.5, 2.0])
    @example(xs=[3, 3, 3, 3, 4], span=0.4, at=[-1.0, 0.0, 0.5, 1.0, 2.0])
    @settings(max_examples=300, deadline=None)
    def test_radii_match_brute_force(self, xs, span, at):
        x, count = np.unique(np.array(xs, dtype=float), return_counts=True)
        q = max(1, math.ceil(span * len(xs)))
        # grid points inside the data, on it, and beyond both ends
        x0 = np.concatenate([x[0] + np.array(at) * (x[-1] - x[0] + 1.0), x])
        dmax, dmin, dfar = _radii(x, count.astype(float), q, x0)
        for j, point in enumerate(x0):
            d = np.abs(x - point)
            assert dmax[j] == np.sort(np.repeat(d, count))[q - 1]
            assert dmin[j] == d.min()
            assert dfar[j] == d.max()

    @pytest.mark.parametrize(
        "x, grid, bound",
        [
            # 210 pooled ranks of five drafts, on the pick grid of the expected curves
            (np.tile(np.arange(1.0, 211.0), 5), SELECTION_GRID, 105_000),
            # 419 rank differentials, on the grid of a surplus curve
            (np.resize(np.arange(-209.0, 210.0), 1050), np.arange(-209.0, 210.0), 120_000),
            # the same x as integers, whose ties collapse by bincount
            (np.tile(np.arange(1, 211), 5), SELECTION_GRID, 105_000),
            (np.resize(np.arange(-209, 210), 1050), np.arange(-209.0, 210.0), 120_000),
        ],
        ids=["ranks210", "differentials419", "integer ranks210", "integer differentials419"],
    )
    def test_peak_memory_of_one_fit(self, x, grid, bound):
        # bound: the kernel's peak, 95,784 and 109,203 bytes for float x and
        # 95,125 and 108,587 for integer x, plus about 10%; the chunk size
        # trades this peak against numpy calls per fit. Three chunk matrices
        # under numpy's default 8,192-element operand buffers read 135,492
        # and 149,938 (bounds 149,000 and 165,000)
        y = np.random.default_rng(0).normal(size=len(x)) * 50 + x
        loess_fit(x, y, grid=grid)
        tracemalloc.start()
        try:
            loess_fit(x, y, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("scale", [1.0, 1e308], ids=["fit", "overflow"])
    def test_buffer_size_is_left_as_found(self, scale):
        # the fit runs under a 256-element buffer; after it returns, or raises
        # in its chunk loop (responses near 1e308 overflow their weighted
        # sums), the caller's buffer size holds again
        x = np.arange(1.0, 61.0)
        y = scale * (1.0 + 0.5 * np.sin(x))
        before = np.setbufsize(4096)
        try:
            with np.errstate(over="raise"):
                if scale == 1.0:
                    loess_fit(x, y, grid=SELECTION_GRID)
                else:
                    with pytest.raises(FloatingPointError, match="overflow"):
                        loess_fit(x, y, grid=SELECTION_GRID)
                assert np.getbufsize() == 4096
        finally:
            np.setbufsize(before)

    def test_ties_match_raw_row_wls_oracle(self, rng):
        checked = 0
        for _ in range(20):
            n = int(rng.integers(15, 80))
            x = rng.integers(0, int(rng.integers(4, 15)), n).astype(float)
            y = rng.normal(size=n) * 10 + x
            span = float(rng.uniform(0.1, 1.0))
            if len(np.unique(x)) < 3 or math.ceil(span * n) < 2:
                continue
            grid = np.arange(x.min() - 1, x.max() + 1.5, 0.5)
            fitted = loess_fit(x, y, grid=grid, span=span).values
            q = math.ceil(span * n)
            for x0, value in zip(grid, fitted):
                d = np.abs(x - x0)
                dmax = np.sort(d)[q - 1]
                if dmax == 0.0:
                    continue
                w = tricube(d / dmax)
                if len(np.unique(x[w > 0])) < 2:
                    continue
                assert value == pytest.approx(wls_line_oracle(x, y, w, x0), rel=1e-9, abs=1e-9)
                checked += 1
        assert checked > 100


class TestCurveEvaluation:
    @given(
        start=st.integers(-300, 300),
        values=hnp.arrays(
            float,
            st.tuples(st.integers(1, 3), st.integers(1, 40)),
            elements=st.floats(-1e6, 1e6) | st.just(-0.0),
        ),
        offsets=st.lists(st.integers(-50, 90), max_size=30),
    )
    @example(start=-2, values=np.array([[-0.0, 0.0, -0.0]]), offsets=[-1, 0, 1, 2, 3])
    @settings(max_examples=300, deadline=None)
    def test_integer_x_on_a_unit_grid_read_the_nodes(self, start, values, offsets):
        grid = np.arange(start, start + values.shape[1], dtype=float)
        x = start + np.array(offsets, dtype=np.int64)
        want = np.array([np.interp(x.astype(float), grid, row) for row in values])
        for curve, expected in ((SmoothCurve(grid, values), want), (SmoothCurve(grid, values[0]), want[0])):
            got = curve(x)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_which_grids_are_read_at_their_nodes(self):
        for grid, first in [
            (SELECTION_GRID, 1),
            (np.arange(-209.0, 210.0), -209),
            (np.array([4.0]), 4),
            (np.array([1.0, 210.0]), None),
            (np.array([0.5, 1.5, 2.5]), None),
            (np.array([1.0, 2.0, 4.0]), None),
        ]:
            assert SmoothCurve(grid, np.zeros(len(grid)))._first_node == first

    def test_float_x_and_other_grids_interpolate(self):
        unit = SmoothCurve(np.arange(1.0, 4.0), np.array([3.0, 1.0, 2.0]))
        assert unit(np.array([0.0, 1.5, 2.25, 9.0])).tolist() == [3.0, 2.0, 1.25, 2.0]
        flat = SmoothCurve(np.array([1.0, 210.0]), np.array([0.0, 209.0]))
        assert flat(np.array([0, 1, 100, 210, 300])).tolist() == [0.0, 0.0, 99.0, 209.0, 209.0]
        steps = antitonic_fit([1, 2, 5], [5.0, 3.0, 1.0])
        assert steps(np.array([1, 3, 4, 5])).tolist() == pytest.approx([5.0, 7.0 / 3.0, 5.0 / 3.0, 1.0])

    def test_scalar_x_gives_a_float(self):
        curve = SmoothCurve(SELECTION_GRID, SELECTION_GRID * 2.0)
        for x, value in [(3, 6.0), (np.int64(500), 420.0), (2.5, 5.0), (np.float64(-1.0), 2.0)]:
            got = curve(x)
            assert type(got) is float and got == value


class TestAntitonic:
    def test_already_non_increasing(self):
        curve = antitonic_fit([1, 2, 3], [5, 3, 1])
        assert np.allclose(curve.values, [5, 3, 1])

    def test_single_violation_pooled(self):
        curve = antitonic_fit([1, 2, 3], [3, 5, 1])
        assert np.allclose(curve.values, [4, 4, 1])

    def test_increasing_input_fully_pooled(self):
        curve = antitonic_fit([1, 2, 3], [1, 2, 3])
        assert np.allclose(curve.values, [2, 2, 2])

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            y = rng.normal(size=n)
            w = rng.uniform(0.2, 3.0, n)
            fit = antitonic_fit(np.arange(n), y, w).values
            oracle = brute_force_antitonic(y, w)
            assert np.max(np.abs(fit - oracle)) < 1e-9

    def test_non_increasing_and_mean_preserving(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 40))
            y = rng.normal(size=n)
            w = rng.uniform(0.5, 2.0, n)
            curve = antitonic_fit(np.arange(n), y, w)
            assert np.all(np.diff(curve.values) <= 1e-12)
            assert np.dot(w, curve.values) == pytest.approx(np.dot(w, y), abs=1e-9)

    def test_idempotent(self, rng):
        y = rng.normal(size=25)
        first = antitonic_fit(np.arange(25), y)
        second = antitonic_fit(first.grid, first.values)
        assert np.max(np.abs(first.values - second.values)) < 1e-12

    def test_ties_aggregated(self):
        curve = antitonic_fit([1, 1, 2], [4.0, 2.0, 1.0], [1.0, 3.0, 1.0])
        # x=1 collapses to weighted mean 2.5 before fitting
        assert np.allclose(curve.grid, [1, 2])
        assert np.allclose(curve.values, [2.5, 1.0])

    def test_too_few_distinct_x(self):
        with pytest.raises(ValueError):
            antitonic_fit([1, 1], [2.0, 3.0])


class TestShapiroWilk:
    def test_n3_symmetric_is_exact(self):
        res = shapiro_wilk([-1.0, 0.0, 1.0])
        assert res.statistic == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_sample(self):
        with pytest.raises(ValueError, match="degenerate"):
            shapiro_wilk([4.0, 4.0, 4.0, 4.0])

    def test_sample_size_limits(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError):
            shapiro_wilk(np.random.default_rng(0).normal(size=5001))

    def test_reference_value_seed42(self):
        # W and p recorded from an independent reference implementation on
        # this exact sample before this module was written
        sample = np.random.default_rng(42).normal(size=30)
        res = shapiro_wilk(sample)
        assert res.statistic == pytest.approx(0.9651416940110119, abs=1e-3)
        assert res.p_value == pytest.approx(0.4160550709697366, abs=5e-3)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=3, max_value=60),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        st.floats(0.1, 10.0),
        st.floats(-100, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_affine_invariance(self, x, a, b):
        # a spread within a few ulps of b does not survive the shift: W of a
        # different sample is not a failure of the test
        assume(np.ptp(a * x) > 1e-4 * max(1.0, abs(b)))
        base = shapiro_wilk(x)
        shifted = shapiro_wilk(a * x + b)
        assert shifted.statistic == pytest.approx(base.statistic, abs=1e-9)
        assert 0.0 < base.statistic <= 1.0

    def test_far_tail_p_value(self):
        # 1 - P(Z <= z) cancelled to exactly 0 here; the upper tail keeps its digits
        from scipy import stats

        x = np.random.default_rng(1).exponential(size=3000) ** 3
        res = shapiro_wilk(x)
        assert res.p_value > 0.0
        assert res.p_value == pytest.approx(stats.shapiro(x).pvalue, rel=1e-6)

    def test_matches_scipy_at_every_small_n(self):
        # n <= 5 takes its own coefficient branch, which the teams stage
        # reaches for a draft of 4 or 5 teams
        from scipy import stats

        rng = np.random.default_rng(7)
        for n in [*range(3, 61), 100, 1_000, 5_000]:
            for x in (rng.normal(size=n), rng.exponential(size=n) ** 2):
                res, ref = shapiro_wilk(x), stats.shapiro(x)
                assert res.statistic == pytest.approx(ref.statistic, rel=0, abs=1e-8), n
                assert res.p_value == pytest.approx(ref.pvalue, rel=1e-5, abs=0), n

    def test_scale_invariance_of_a_tiny_spread(self):
        x = np.array([1e-5] + [0.0] * 48)
        assert shapiro_wilk(0.25 * x).statistic == pytest.approx(
            shapiro_wilk(x).statistic, abs=1e-9
        )


class TestDistributions:
    """numerics' normal and t functions against scipy.special as an oracle."""

    def test_normal_tail(self):
        from scipy.special import ndtr

        z = np.linspace(-8.0, 37.0, 4501)
        mine = np.array([normal_tail(v) for v in z])
        assert np.all(mine > 0.0)
        np.testing.assert_allclose(mine, ndtr(-z), rtol=1e-13, atol=0.0)

    def test_normal_quantile(self):
        from scipy.special import ndtri

        p = np.concatenate([np.geomspace(1e-300, 0.4999, 3000), np.linspace(1e-4, 0.4999999, 3000)])
        mine = np.array([normal_quantile(v) for v in p])
        np.testing.assert_allclose(mine, ndtri(p), rtol=1e-14, atol=0.0)

    def test_t_two_sided(self):
        from scipy.special import stdtr

        checked = 0
        for df in range(1, 1001):
            # x = df / (df + t^2) from 1 down past where p falls below 1e-300
            x = 10.0 ** -np.linspace(0.0, min(300.0, 640.0 / df), 24)[1:]
            t = np.concatenate([np.linspace(0.0, 3.0, 7), np.sqrt(df * (1.0 - x) / x)])
            ref = 2.0 * stdtr(df, -t)
            keep = ref >= 1e-300
            mine = np.array([t_two_sided(float(v), df) for v in t[keep]])
            np.testing.assert_allclose(mine, ref[keep], rtol=1e-10, atol=0.0, err_msg=f"df={df}")
            checked += int(keep.sum())
        assert checked > 20_000

    def test_t_two_sided_symmetric_in_t(self):
        assert t_two_sided(-2.5, 7) == t_two_sided(2.5, 7)
        assert t_two_sided(0.0, 7) == 1.0


class TestPearson:
    def test_perfect_positive(self):
        res = pearson([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
        assert res.statistic == pytest.approx(1.0)
        assert res.p_value == pytest.approx(0.0, abs=1e-12)

    def test_perfect_negative(self):
        res = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert res.statistic == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        res = pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        assert res.statistic == pytest.approx(0.5)

    def test_p_value_matches_t_transform(self, rng):
        from scipy import stats

        x = rng.normal(size=25)
        y = x + rng.normal(size=25)
        mine = pearson(x, y)
        ref_r, ref_p = stats.pearsonr(x, y)
        assert mine.statistic == pytest.approx(ref_r, abs=1e-12)
        assert mine.p_value == pytest.approx(ref_p, rel=1e-9)

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_far_tail_p_value(self):
        from scipy.special import stdtr

        x = np.random.default_rng(0).normal(size=30)
        y = x + 1e-6 * np.random.default_rng(1).normal(size=30)
        res = pearson(x, y)
        r = res.statistic
        t = r * math.sqrt(28 / (1.0 - r * r))
        assert res.p_value > 0.0
        assert res.p_value == pytest.approx(2.0 * stdtr(28, -abs(t)), rel=1e-10)

    @given(st.floats(0.1, 50), st.floats(-20, 20), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = pearson(x, y)
        scaled = pearson(a * x + b, y)
        assert abs(base.statistic) <= 1.0
        assert scaled.statistic == pytest.approx(base.statistic, abs=1e-9)


def test_cli_import_loads_no_scipy():
    # the distribution functions are numerics' own: a command starts on numpy alone
    src = str(Path(draftvalue.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, draftvalue.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"
