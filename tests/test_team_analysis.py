import dataclasses
import warnings

import numpy as np
import pytest

from draftvalue.core_model import Draft, Metric
from draftvalue.team_analysis import (
    TeamGain,
    normality_check,
    outlier_teams,
    split_half_correlation,
    team_gains,
)

from conftest import make_class, make_record, one_class, random_class


def random_surplus(rng, draft):
    """A per-pick surplus row of every metric over the rows of ``draft``."""
    return {m: rng.normal(0, 100, len(draft.columns.selection)) for m in Metric}


class TestTeamGains:
    def test_single_pick_team(self):
        draft = Draft([make_class([make_record(selection=1, team="NYR")])])
        gains = team_gains(draft, {Metric.TOI: np.array([400.0])})
        assert gains == [TeamGain("NYR", 1, {Metric.TOI: 400.0})]

    def test_symmetric_picks_cancel(self):
        records = [make_record(selection=s, team="BOS", css_category_rank=s) for s in (1, 2)]
        gains = team_gains(Draft([make_class(records)]), {Metric.TOI: np.array([1000.0, -1000.0])})
        assert gains[0].picks == 2 and gains[0].mean_gain[Metric.TOI] == 0.0

    def test_partition_consistency(self, rng):
        classes = Draft(random_class(rng, n=30, year=y, teams=5) for y in (1998, 1999))
        surplus = random_surplus(rng, classes)
        gains = team_gains(classes, surplus)
        assert sum(g.picks for g in gains) == 60
        for metric, row in surplus.items():
            total_by_team = sum(g.picks * g.mean_gain[metric] for g in gains)
            assert total_by_team == pytest.approx(row.sum(), abs=1e-9)

    def test_kept_rows_give_the_gains_of_their_classes(self, rng):
        classes = [random_class(rng, n=30, year=y, teams=5) for y in (1998, 1999, 2000)]
        draft = Draft(classes)
        surplus = random_surplus(rng, draft)
        keep = np.repeat([True, False, True], 30)
        half = Draft([classes[0], classes[2]])
        kept = {m: row[keep] for m, row in surplus.items()}
        assert team_gains(draft, surplus, keep) == team_gains(half, kept)

    def test_team_labels_permutable(self, rng):
        dc = random_class(rng, n=20, teams=4)
        surplus = random_surplus(rng, Draft([dc]))
        base = {g.team: g for g in team_gains(Draft([dc]), surplus)}
        swap = {"T01": "T02", "T02": "T01", "T03": "T03", "T04": "T04"}
        teams = np.array([swap[t.decode()].encode() for t in dc.columns.team.tolist()])
        renamed = one_class(dc.years[0], dataclasses.replace(dc.columns, team=teams))
        permuted = {g.team: g for g in team_gains(Draft([renamed]), surplus)}
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
        return Draft([dc, one_class(2001, dc.columns)]), rng.normal(0, 100, 24)

    def test_identical_halves_correlate_perfectly(self, rng):
        classes, row = self._two_identical_years(rng)
        surplus = {m: np.tile(row, 2) for m in Metric}
        results = split_half_correlation(classes, surplus, early_years=[1998], late_years=[2001])
        assert set(results) == set(Metric)
        for res in results.values():
            assert res.statistic == pytest.approx(1.0)

    def test_negated_halves_correlate_negatively(self, rng):
        classes, row = self._two_identical_years(rng)
        surplus = {Metric.GVT: np.concatenate([row, -row])}
        results = split_half_correlation(classes, surplus, early_years=[1998], late_years=[2001])
        assert results[Metric.GVT].statistic == pytest.approx(-1.0)

    def test_needs_common_teams(self, rng):
        draft = Draft([random_class(rng, n=10, year=1998, teams=2)])
        with pytest.raises(ValueError):
            split_half_correlation(draft, random_surplus(rng, draft), early_years=[1998], late_years=[2001])


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
