"""Per-team average scouting return, a normality check of the team gains,
and a split-half consistency correlation across early and late drafts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core_model import Draft, Metric
from .numerics import TestResult, pearson, shapiro_wilk

OUTLIER_SD = 3.0  # a team's mean gain this many SDs from the league mean is an outlier


@dataclass(frozen=True, eq=False)
class TeamGains:
    """Pick counts and mean realized surplus of each team of ``teams``, the
    sorted team codes (UTF-8 bytes): row 0 of ``picks`` and of each metric's
    ``means`` covers every row, rows 1 and 2 the early and late year halves.
    A team absent from a half has 0 picks and a NaN mean there."""

    teams: np.ndarray
    picks: np.ndarray
    means: Mapping[Metric, np.ndarray]


def team_gains(
    draft: Draft,
    surplus: Mapping[Metric, np.ndarray],
    early_years: Sequence[int] = (),
    late_years: Sequence[int] = (),
) -> TeamGains:
    """Mean ``surplus`` per pick of each team over every row and over the
    classes of ``early_years`` and of ``late_years`` (a year of both is
    early); ``surplus`` maps a metric to one outcome minus expectation per
    row of ``draft.columns``. Averaging, rather than totals, keeps teams
    with fewer drafts comparable to the rest of the league.
    """
    teams, picks = np.unique(draft.columns.team, return_counts=True)  # a bare np.unique imports numpy.ma
    code = np.min_scalar_type(-3 * len(teams))
    team_of = teams.searchsorted(draft.columns.team).astype(code)
    # the key half * teams + team, where half 0 holds the rows of neither half
    halves = [1 if year in early_years else 2 if year in late_years else 0 for year in draft.years]
    key = np.repeat(np.array(halves, code) * len(teams), np.diff(draft.bounds)) + team_of
    table = np.bincount(key, minlength=3 * len(teams)).reshape(3, -1)
    table[0] = picks
    # bincount adds each team's surpluses in row order, year by year; a
    # metric's row is read inside the comprehension, so no earlier row is held
    means = {m: _means(key, team_of, table, draft.aligned(surplus[m])) for m in surplus}
    return TeamGains(teams, table, means)


def _means(key: np.ndarray, team_of: np.ndarray, picks: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The (3, teams) mean of ``row`` per team: every row, then each half."""
    sums = np.bincount(key, row, minlength=picks.size).reshape(picks.shape)
    sums[0] = np.bincount(team_of, row)  # every row in one sum, not the sum of the halves
    return np.divide(sums, picks, out=np.full(picks.shape, np.nan), where=picks > 0)


def normality_check(gains: TeamGains, metric: Metric) -> TestResult:
    """Shapiro-Wilk over the team mean gains for one metric."""
    if gains.teams.size < 3:
        raise ValueError("need at least 3 teams")
    return shapiro_wilk(gains.means[metric][0])


def split_half_correlation(gains: TeamGains) -> dict[Metric, TestResult]:
    """Correlation across teams between mean gains in the early and late
    year halves; teams missing from either half are excluded."""
    both = (gains.picks[1:] > 0).all(axis=0)
    if both.sum() < 3:
        raise ValueError("need at least 3 teams with picks in both halves")
    return {m: pearson(v[1, both], v[2, both]) for m, v in gains.means.items()}


def outlier_teams(gains: TeamGains, metric: Metric) -> list[str]:
    """Teams whose mean gain sits beyond ``OUTLIER_SD`` standard deviations
    of the cross-team mean; reported, never asserted."""
    if gains.teams.size < 2:
        return []
    values = gains.means[metric][0]
    mu, sd = values.mean(), values.std(ddof=1)
    if sd == 0:
        return []
    return [team.decode() for team in gains.teams[abs(values - mu) > OUTLIER_SD * sd].tolist()]
