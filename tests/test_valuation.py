import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftvalue.cescin import CategoryFactors, css_ordering
from draftvalue.core_model import Draft, Metric, PositionGroup, RecordError
from draftvalue.numerics import SmoothCurve
from draftvalue.synth import SynthConfig, generate_synthetic_draft
from draftvalue.valuation import (
    DollarConstants,
    ValueChart,
    average_gain,
    differential_points,
    draft_value_chart,
    expected_curve,
    fit_differential_curve,
    gain_estimate,
    group_rows,
    to_dollars,
)

from conftest import make_class, make_record

UNIT = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)


def linear_curve(slope, intercept=0.0, lo=-250, hi=250):
    grid = np.arange(lo, hi + 1, dtype=float)
    return SmoothCurve(grid=grid, values=slope * grid + intercept)


def differentials(records, curve=None, metric=Metric.GP):
    """(delta rank, delta metric) of a one-year class ranked by category rank."""
    dc = make_class(records)
    curves = {metric: curve or linear_curve(0.0)}
    delta_rank, deltas = differential_points(Draft([dc]), css_ordering(dc, UNIT), curves)
    return delta_rank, deltas[metric]


def moved(n, selection, rank):
    """n players ranked in selection order, except ``selection`` ranked ``rank``."""
    order = [s for s in range(1, n + 1) if s != selection]
    order.insert(rank - 1, selection)
    return [make_record(selection=s, css_category_rank=order.index(s) + 1) for s in range(1, n + 1)]


class TestRankDifferential:
    def test_taken_ahead_of_ranking(self):
        assert differentials(moved(13, 6, 13))[0][5] == -7

    def test_zero_and_positive(self):
        delta_rank, _ = differentials(moved(100, 100, 40))
        assert delta_rank[9] == 0
        assert delta_rank[99] == 60

    def test_antisymmetric(self, rng):
        for _ in range(20):
            a, b = (int(x) for x in rng.integers(1, 51, 2))
            assert differentials(moved(50, a, b))[0][a - 1] == -differentials(moved(50, b, a))[0][b - 1]

    def test_one_based(self):
        with pytest.raises(RecordError, match="selection: must be >= 1, got 0"):
            make_class([make_record(selection=0)])
        assert differentials(moved(5, 1, 5))[0].tolist() == [-4, 1, 1, 1, 1]


class TestMetricDifferential:
    def test_subtraction(self):
        curve = linear_curve(0.0, 600.0)
        r = make_record(toi7=1000.0)
        assert differentials([r], curve, Metric.TOI)[1][0] == pytest.approx(400.0)

    def test_on_curve_is_zero(self):
        curve = linear_curve(0.0, 1500.0)
        r = make_record(toi7=1500.0)
        assert differentials([r], curve, Metric.TOI)[1][0] == 0.0

    def test_never_played_below_expectation(self):
        curve = linear_curve(0.0, 300.0)
        r = make_record(gp7=0, toi7=None, gvt7=None)
        assert differentials([r], curve, Metric.GP)[1][0] == pytest.approx(-300.0)

    def test_rank_outside_grid_extrapolates_constant(self):
        curve = SmoothCurve(grid=np.array([1.0, 10.0]), values=np.array([5.0, 2.0]))
        records = [
            make_record(selection=s, css_category_rank=s, gp7=10, toi7=100.0, gvt7=0.0)
            for s in range(1, 13)
        ]
        assert differentials(records, curve, Metric.GP)[1][11] == pytest.approx(8.0)

    def test_each_read_builds_outcome_minus_expectation(self):
        draft = generate_synthetic_draft(SynthConfig(seed=0, years=2))
        ranks = css_ordering(draft, UNIT)
        curves = expected_curve(draft, ranks, list(Metric))
        for keep in (None, group_rows(draft, PositionGroup.D)):
            _, surplus = differential_points(draft, ranks, curves, keep)
            assert list(surplus) == list(Metric)
            at = ranks if keep is None else ranks[keep]
            for metric in Metric:
                outcome = draft.columns.metrics[metric]
                want = (outcome if keep is None else outcome[keep]) - curves[metric](at)
                assert surplus[metric].tobytes() == want.tobytes()
                assert surplus[metric].tobytes() == surplus[metric].tobytes()
            with pytest.raises(TypeError):
                surplus[Metric.GP] = want


class TestDifferentialCurve:
    def test_all_zero(self, rng):
        deltas = np.arange(-5, 6)
        curve = fit_differential_curve(deltas, np.zeros(len(deltas)))
        assert np.allclose(curve.values, 0.0, atol=1e-12)

    def test_recovers_line(self, rng):
        deltas = np.arange(-20, 21)
        curve = fit_differential_curve(deltas, -3.0 * deltas, span=0.5)
        assert np.max(np.abs(curve.values - (-3.0 * curve.grid))) < 1e-6

    def test_requires_sign_span(self):
        deltas = np.arange(1, 20)
        with pytest.raises(ValueError):
            fit_differential_curve(deltas, np.ones(len(deltas)))

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            fit_differential_curve(np.array([-1, 1]), np.zeros(2))


def looped_gain(curve, deltas):
    """``average_gain`` as an explicit loop over the picks in order."""
    ahead = behind = 0.0
    for d in deltas:
        if d < 0:
            ahead += curve(d)
        elif d > 0:
            behind += curve(d)
    return (ahead - behind) / len(deltas)


class TestAverageGain:
    def test_adds_in_pick_order_through_cancellation(self):
        # Python 3.12's compensated sum() gives 4301.000000000005 for the
        # ahead total and 3.11's 3999.3010000000004, as this loop does
        values = np.array([1e16, 1.0, -1e16, 3.3, 1e-3] * 1000)
        curve = SmoothCurve(np.arange(-5000.0, 5001.0), np.concatenate([values, [0.0], -values]))
        deltas = np.arange(-5000, 5001)
        assert average_gain(curve, deltas[:5000]) == looped_gain(curve, deltas[:5000]) == 3999.3010000000004 / 5000
        assert average_gain(curve, deltas) == looped_gain(curve, deltas)

    @given(
        st.lists(st.floats(-1e16, 1e16), min_size=21, max_size=21),
        st.lists(st.integers(-10, 10), min_size=1, max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_a_left_to_right_loop(self, values, deltas):
        curve = SmoothCurve(np.arange(-10.0, 11.0), np.array(values))
        assert average_gain(curve, deltas) == looped_gain(curve, deltas)

    def test_zero_curve(self):
        assert average_gain(linear_curve(0.0), [-3, 0, 5]) == 0.0

    def test_direct_formula(self):
        # f(x) = -x, deltas {-2, 3}: (f(-2) - f(3)) / 2 = (2 + 3) / 2
        assert average_gain(linear_curve(-1.0), [-2, 3]) == pytest.approx(2.5)

    def test_all_zero_deltas(self):
        assert average_gain(linear_curve(-1.0), [0, 0, 0]) == 0.0

    def test_zeros_count_in_denominator(self):
        with_zeros = average_gain(linear_curve(-1.0), [-2, 3, 0, 0])
        assert with_zeros == pytest.approx(1.25)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            average_gain(linear_curve(-1.0), [])


class TestDollars:
    def test_games_played_conversion(self):
        assert to_dollars(1.0, Metric.GP) == pytest.approx(29_300.0)

    def test_goals_conversion(self):
        assert to_dollars(3.0, Metric.GVT) == pytest.approx(1_000_000.0)

    def test_minutes_conversion(self):
        assert to_dollars(20.0, Metric.TOI) == pytest.approx(29_300.0)

    def test_linearity(self, rng):
        for metric in Metric:
            a, b = rng.normal(size=2) * 10
            assert to_dollars(a + b, metric) == pytest.approx(
                to_dollars(a, metric) + to_dollars(b, metric)
            )

    def test_gain_estimate_scales_by_picks_per_season(self):
        est = gain_estimate(linear_curve(-1.0), [-2, 3], Metric.GP)
        assert est.per_draft == pytest.approx(est.per_pick * 7)
        assert est.dollars == pytest.approx(est.per_draft * 29_300.0)

    def test_custom_constants(self):
        constants = DollarConstants(salary_per_game=100.0, picks_per_season=2)
        est = gain_estimate(linear_curve(-1.0), [-2, 3], Metric.GP, constants)
        assert est.per_draft == pytest.approx(est.per_pick * 2)
        assert est.dollars == pytest.approx(est.per_draft * 100.0)


def toi_class(toi_of_selection, n=210):
    records = [
        make_record(
            selection=s,
            css_category_rank=s,
            gp7=max(1, int(toi_of_selection(s) // 20)) if toi_of_selection(s) > 0 else 0,
            toi7=float(toi_of_selection(s)),
            gvt7=0.0 if toi_of_selection(s) > 0 else None,
        )
        for s in range(1, n + 1)
    ]
    return make_class(records)


def chart_of(dc):
    return draft_value_chart(expected_curve(Draft([dc]), dc.columns.selection, [Metric.TOI])[Metric.TOI])


class TestValueChart:
    def test_constant_toi_gives_flat_chart(self):
        dc = toi_class(lambda s: 5000.0)
        chart = chart_of(dc)
        assert set(chart.values) == {1000}

    def test_noise_free_decreasing(self):
        dc = toi_class(lambda s: 2110.0 - 10.0 * s)
        chart = chart_of(dc)
        assert chart.value(1) == 1000
        assert all(b < a for a, b in zip(chart.values, chart.values[1:]))
        again = chart_of(dc)
        assert again.values == chart.values

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ValueChart(values=tuple([1000] * 209))
        with pytest.raises(ValueError):
            ValueChart(values=tuple([999] + [500] * 209))
        increasing = [1000] * 100 + [1001] + [900] * 109
        with pytest.raises(ValueError):
            ValueChart(values=tuple(increasing))

    def test_value_accessor(self):
        chart = ValueChart(values=tuple([1000] + [500] * 208 + [0]))
        assert chart.value(1) == 1000
        assert chart.value(210) == 0
        assert chart.rows()[0] == (1, 1000)


class TestExpectedCurve:
    def test_constant_metric(self):
        dc = toi_class(lambda s: 4000.0, n=60)
        curve = expected_curve(Draft([dc]), dc.columns.selection, [Metric.TOI])[Metric.TOI]
        assert np.allclose(curve.values, 4000.0, atol=1e-9)

    def test_decreasing_quality_decreasing_curve_ends(self):
        dc = toi_class(lambda s: 4200.0 - 20.0 * s)
        for ranks in (dc.columns.selection, css_ordering(dc, UNIT)):
            curve = expected_curve(Draft([dc]), ranks, [Metric.TOI])[Metric.TOI]
            assert curve(1) > curve(210)

    def test_sum_delta_rank_zero_when_all_ranked(self):
        dc = toi_class(lambda s: 4200.0 - 20.0 * s, n=50)
        curves = {Metric.TOI: linear_curve(0.0)}
        delta_rank, _ = differential_points(Draft([dc]), css_ordering(dc, UNIT), curves)
        assert delta_rank.sum() == 0
