import dataclasses
import warnings

import numpy as np
import pytest

from draftvalue.cescin import CategoryFactors, css_ordering
from draftvalue.core_model import Draft, DraftClass, Metric
from draftvalue.numerics import SmoothCurve
from draftvalue.team_analysis import (
    TeamGain,
    normality_check,
    outlier_teams,
    split_half_correlation,
    team_gains,
)
from draftvalue.valuation import differential_points

from conftest import make_class, make_record, pooled_css, random_class

UNIT = CategoryFactors(na_skater=1.0, na_goalie=1.0, eu_skater=1.0, eu_goalie=1.0)


def flat_curves(level=0.0):
    grid = np.arange(1, 211, dtype=float)
    curve = SmoothCurve(grid=grid, values=np.full(210, level))
    return {m: curve for m in Metric}


class TestTeamGains:
    def test_single_pick_team(self):
        dc = make_class([make_record(selection=1, team="NYR", toi7=400.0, gp7=40, gvt7=2.0)])
        gains = team_gains(Draft([dc]), css_ordering(dc, UNIT), flat_curves(0.0))
        assert len(gains) == 1
        assert gains[0].team == "NYR"
        assert gains[0].picks == 1
        assert gains[0].mean_gain[Metric.TOI] == pytest.approx(400.0)

    def test_symmetric_picks_cancel(self):
        records = [
            make_record(selection=1, team="BOS", css_category_rank=1, gp7=200,
                        toi7=3000.0, gvt7=10.0),
            make_record(selection=2, team="BOS", css_category_rank=2, gp7=100,
                        toi7=1000.0, gvt7=-10.0),
        ]
        dc = make_class(records)
        gains = team_gains(Draft([dc]), css_ordering(dc, UNIT), flat_curves(2000.0))
        assert gains[0].mean_gain[Metric.TOI] == pytest.approx(0.0)

    def test_partition_consistency(self, rng):
        classes = Draft(random_class(rng, n=30, year=y, teams=5) for y in (1998, 1999))
        orderings = pooled_css(classes, UNIT)
        curves = flat_curves(120.0)
        gains = team_gains(classes, orderings, curves)
        deltas = differential_points(classes, orderings, curves)[1]
        for metric, row in zip(curves, deltas):
            total_by_team = sum(g.picks * g.mean_gain[metric] for g in gains)
            assert total_by_team == pytest.approx(row.sum(), abs=1e-9)

    def test_kept_rows_give_the_gains_of_their_classes(self, rng):
        classes = [random_class(rng, n=30, year=y, teams=5) for y in (1998, 1999, 2000)]
        draft = Draft(classes)
        orderings = pooled_css(draft, UNIT)
        keep = np.repeat([True, False, True], 30)
        half = Draft([classes[0], classes[2]])
        curves = flat_curves(120.0)
        assert team_gains(draft, orderings, curves, keep) == team_gains(half, orderings[keep], curves)

    def test_team_labels_permutable(self, rng):
        dc = random_class(rng, n=20, teams=4)
        orderings = css_ordering(dc, UNIT)
        curves = flat_curves(50.0)
        base = {g.team: g for g in team_gains(Draft([dc]), orderings, curves)}
        swap = {"T01": "T02", "T02": "T01", "T03": "T03", "T04": "T04"}
        teams = np.array([swap[t.decode()].encode() for t in dc.columns.team.tolist()])
        renamed = DraftClass(dc.year, dataclasses.replace(dc.columns, team=teams))
        permuted = {g.team: g for g in team_gains(Draft([renamed]), orderings, curves)}
        for old, new in swap.items():
            if old in base:
                assert permuted[new].mean_gain == base[old].mean_gain


class TestNormalityCheck:
    def test_needs_three_teams(self):
        gains = [TeamGain("A", 1, {Metric.GP: 0.0}), TeamGain("B", 1, {Metric.GP: 1.0})]
        with pytest.raises(ValueError):
            normality_check(gains, Metric.GP)

    def test_identical_gains_degenerate(self):
        gains = [TeamGain(t, 1, {Metric.GP: 5.0}) for t in "ABCD"]
        with pytest.raises(ValueError, match="degenerate"):
            normality_check(gains, Metric.GP)

    def test_normal_gains_usually_pass(self):
        # distributional property: aggregate over seeds, not per-seed
        passed = 0
        for seed in range(40):
            values = np.random.default_rng(seed).normal(size=30)
            gains = [TeamGain(f"T{i}", 1, {Metric.GP: float(v)}) for i, v in enumerate(values)]
            if normality_check(gains, Metric.GP).p_value > 0.05:
                passed += 1
        assert passed >= 32


class TestSplitHalf:
    def _two_identical_years(self, rng):
        dc = random_class(rng, n=24, year=1998, teams=6)
        clone = DraftClass(2001, dc.columns)
        classes = Draft([dc, clone])
        return classes, pooled_css(classes, UNIT)

    def test_identical_halves_correlate_perfectly(self, rng):
        classes, orderings = self._two_identical_years(rng)
        results = split_half_correlation(
            classes, orderings, flat_curves(80.0), early_years=[1998], late_years=[2001]
        )
        for res in results.values():
            assert res.statistic == pytest.approx(1.0)

    def test_negated_halves_correlate_negatively(self, rng):
        classes, _ = self._two_identical_years(rng)
        # flip the late half around the curve level: gain -> -gain
        late = classes[1]
        gp, toi, gvt = (late.columns.metrics[m] for m in (Metric.GP, Metric.TOI, Metric.GVT))
        metrics = {
            Metric.GP: np.maximum(0, 2 * 80 - gp),
            Metric.TOI: np.where(gp != 0, np.maximum(0.0, 2 * 80.0 - toi), 0.0),
            Metric.GVT: 2 * 80.0 - gvt,
        }
        flipped = DraftClass(2001, dataclasses.replace(late.columns, metrics=metrics))
        curves = flat_curves(80.0)
        classes = Draft([classes[0], flipped])
        results = split_half_correlation(
            classes, pooled_css(classes, UNIT), {Metric.GVT: curves[Metric.GVT]},
            early_years=[1998], late_years=[2001],
        )
        assert results[Metric.GVT].statistic == pytest.approx(-1.0)

    def test_needs_common_teams(self, rng):
        dc = random_class(rng, n=10, year=1998, teams=2)
        with pytest.raises(ValueError):
            split_half_correlation(
                Draft([dc]), css_ordering(dc, UNIT), flat_curves(), early_years=[1998], late_years=[2001]
            )


class TestDiagnostics:
    def test_no_outliers_in_tight_cluster(self):
        gains = [TeamGain(f"T{i}", 1, {Metric.GP: float(i % 3)}) for i in range(12)]
        assert outlier_teams(gains, Metric.GP) == []

    def test_one_team_has_no_outliers(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outlier_teams([TeamGain("T1", 7, {Metric.GP: 3.0})], Metric.GP) == []

    def test_extreme_team_flagged(self):
        # 12 teams: with n values no z-score (ddof=1) exceeds (n-1)/sqrt(n)
        values = [0.0, 0.1, -0.1, 0.05, -0.05, 0.02, -0.02, 0.08, -0.08, 0.03, -0.03, 50.0]
        gains = [TeamGain(f"T{i}", 1, {Metric.GP: v}) for i, v in enumerate(values)]
        assert outlier_teams(gains, Metric.GP) == ["T11"]
