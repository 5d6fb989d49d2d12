import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draftvalue.core_model import Draft, Metric
from draftvalue.team_analysis import (
    TeamGains,
    normality_check,
    outlier_teams,
    split_half_correlation,
    team_gains,
)

from conftest import make_class, make_record, one_class, random_class


def random_surplus(rng, draft):
    """A per-pick surplus row of every metric over the rows of ``draft``."""
    return {m: rng.normal(0, 100, len(draft.columns.selection)) for m in Metric}


def table(values, picks=1, metric=Metric.GP):
    """The gains of teams ``T0``, ``T1``, ... with these mean gains of
    ``metric`` and ``picks`` picks each, in every row of the table."""
    teams = np.array([f"T{i}".encode() for i in range(len(values))], dtype="S")
    return TeamGains(teams, np.full((3, len(values)), picks), {metric: np.array([values] * 3, dtype=float)})


class TestTeamGains:
    def test_single_pick_team(self):
        draft = Draft([make_class([make_record(selection=1, team="NYR")])])
        gains = team_gains(draft, {Metric.TOI: np.array([400.0])})
        assert gains.teams.tolist() == [b"NYR"] and gains.picks.tolist() == [[1], [0], [0]]
        assert gains.means.keys() == {Metric.TOI} and gains.means[Metric.TOI][0].tolist() == [400.0]

    def test_symmetric_picks_cancel(self):
        records = [make_record(selection=s, team="BOS", css_category_rank=s) for s in (1, 2)]
        gains = team_gains(Draft([make_class(records)]), {Metric.TOI: np.array([1000.0, -1000.0])})
        assert gains.picks[0].tolist() == [2] and gains.means[Metric.TOI][0].tolist() == [0.0]

    def test_partition_consistency(self, rng):
        classes = Draft(random_class(rng, n=30, year=y, teams=5) for y in (1998, 1999))
        surplus = random_surplus(rng, classes)
        gains = team_gains(classes, surplus, [1998], [1999])
        assert gains.picks[0].sum() == 60 and gains.picks[1].sum() == gains.picks[2].sum() == 30
        for metric, row in surplus.items():
            for half, rows in ((0, slice(None)), (1, slice(30)), (2, slice(30, None))):
                seen = gains.picks[half] > 0
                total_by_team = (gains.picks[half][seen] * gains.means[metric][half][seen]).sum()
                assert total_by_team == pytest.approx(row[rows].sum(), abs=1e-9)

    def test_team_labels_permutable(self, rng):
        dc = random_class(rng, n=20, teams=4)
        surplus = random_surplus(rng, Draft([dc]))
        base = team_gains(Draft([dc]), surplus)
        swap = {"T01": "T02", "T02": "T01", "T03": "T03", "T04": "T04"}
        teams = np.array([swap[t.decode()].encode() for t in dc.columns.team.tolist()])
        renamed = one_class(dc.years[0], dataclasses.replace(dc.columns, team=teams))
        permuted = team_gains(Draft([renamed]), surplus)
        for old, new in swap.items():
            if old.encode() in base.teams:
                k, j = base.teams.tolist().index(old.encode()), permuted.teams.tolist().index(new.encode())
                assert permuted.picks[0, j] == base.picks[0, k]
                assert all(permuted.means[m][0, j] == base.means[m][0, k] for m in Metric)


# codes the oracle draws from: non-ASCII ones sort by code point, as their UTF-8 bytes do
CODES = ("A", "B", "Z", "ab", "é", "李", "𝔸")


@st.composite
def drafts(draw):
    """1-4 classes of 1-12 picks, each pick's team code, each class's half
    (0: neither, 1: early, 2: late) and three surplus values per pick."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    picks = [draw(st.lists(st.sampled_from(CODES), min_size=n, max_size=n)) for n in sizes]
    halves = draw(st.lists(st.integers(0, 2), min_size=len(sizes), max_size=len(sizes)))
    values = st.floats(-1e6, 1e6, allow_subnormal=True)
    surplus = draw(st.lists(st.tuples(values, values, values), min_size=sum(sizes), max_size=sum(sizes)))
    return picks, halves, surplus


@settings(max_examples=150, deadline=None)
@given(drafts())
# a team (B) missing from the late half
@example(([["A", "B", "é"], ["A", "é", "李"]], [1, 2], [(1.0, 2.0, 3.0)] * 6))
# no late year, and a class in neither half
@example(([["李", "A"], ["𝔸"], ["A"]], [1, 0, 1], [(0.1, -0.2, 0.3)] * 4))
def test_the_table_is_a_per_team_running_sum(case):
    picks, halves, rows = case
    years = range(2000, 2000 + len(picks))
    draft = Draft(
        make_class([make_record(year=year, selection=s, team=team, css_category_rank=s)
                    for s, team in enumerate(teams, start=1)])
        for year, teams in zip(years, picks)
    )
    surplus = {m: np.array([r[i] for r in rows]) for i, m in enumerate(Metric)}
    early = [y for y, h in zip(years, halves) if h == 1]
    late = [y for y, h in zip(years, halves) if h == 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a team absent from a half divides nothing by 0
        gains = team_gains(draft, surplus, early, late)

    # every row in row order, then each row of a half into that half too
    want = {}
    half_of_row = [h for teams, h in zip(picks, halves) for _ in teams]
    team_of_row = [team for teams in picks for team in teams]
    for team, half, values in zip(team_of_row, half_of_row, rows):
        for stratum in (0, half) if half else (0,):
            count, sums = want.get((stratum, team), (0, [0.0, 0.0, 0.0]))
            for i, v in enumerate(values):
                sums[i] += v
            want[stratum, team] = (count + 1, sums)

    teams = [t.decode() for t in gains.teams.tolist()]
    assert teams == sorted(set(team_of_row))
    assert gains.picks.shape == (3, len(teams)) and gains.means.keys() == surplus.keys()
    for stratum in range(3):
        for k, team in enumerate(teams):
            count, sums = want.get((stratum, team), (0, None))
            assert gains.picks[stratum, k] == count
            for i, m in enumerate(Metric):
                mean = gains.means[m][stratum, k]
                if count:  # bit for bit: the same additions in the same order
                    assert mean.tobytes() == np.float64(sums[i] / count).tobytes()
                else:
                    assert np.isnan(mean)


class TestNormalityCheck:
    def test_needs_three_teams(self):
        with pytest.raises(ValueError):
            normality_check(table([0.0, 1.0]), Metric.GP)

    def test_identical_gains_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            normality_check(table([5.0] * 4), Metric.GP)

    def test_normal_gains_usually_pass(self):
        # distributional property: aggregate over seeds, not per-seed
        passed = 0
        for seed in range(40):
            values = np.random.default_rng(seed).normal(size=30)
            if normality_check(table(values.tolist()), Metric.GP).p_value > 0.05:
                passed += 1
        assert passed >= 32


class TestSplitHalf:
    def _two_identical_years(self, rng):
        dc = random_class(rng, n=24, year=1998, teams=6)
        return Draft([dc, one_class(2001, dc.columns)]), rng.normal(0, 100, 24)

    def test_identical_halves_correlate_perfectly(self, rng):
        classes, row = self._two_identical_years(rng)
        surplus = {m: np.tile(row, 2) for m in Metric}
        results = split_half_correlation(team_gains(classes, surplus, early_years=[1998], late_years=[2001]))
        assert set(results) == set(Metric)
        for res in results.values():
            assert res.statistic == pytest.approx(1.0)

    def test_negated_halves_correlate_negatively(self, rng):
        classes, row = self._two_identical_years(rng)
        surplus = {Metric.GVT: np.concatenate([row, -row])}
        results = split_half_correlation(team_gains(classes, surplus, early_years=[1998], late_years=[2001]))
        assert results[Metric.GVT].statistic == pytest.approx(-1.0)

    def test_needs_common_teams(self, rng):
        draft = Draft([random_class(rng, n=10, year=1998, teams=2)])
        gains = team_gains(draft, random_surplus(rng, draft), early_years=[1998], late_years=[2001])
        with pytest.raises(ValueError):
            split_half_correlation(gains)


class TestDiagnostics:
    def test_no_outliers_in_tight_cluster(self):
        assert outlier_teams(table([float(i % 3) for i in range(12)]), Metric.GP) == []

    def test_one_team_has_no_outliers(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outlier_teams(table([3.0], picks=7), Metric.GP) == []

    def test_extreme_team_flagged(self):
        # 12 teams: with n values no z-score (ddof=1) exceeds (n-1)/sqrt(n)
        values = [0.0, 0.1, -0.1, 0.05, -0.05, 0.02, -0.02, 0.08, -0.08, 0.03, -0.03, 50.0]
        assert outlier_teams(table(values), Metric.GP) == ["T11"]
