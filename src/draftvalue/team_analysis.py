"""Per-team average scouting return, a normality check of the team gains,
and a split-half consistency correlation across early and late drafts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core_model import Draft, Metric
from .numerics import TestResult, pearson, shapiro_wilk

OUTLIER_SD = 3.0  # a team's mean gain this many SDs from the league mean is an outlier


@dataclass(frozen=True)
class TeamGain:
    """One team's pick count and mean realized surplus per metric."""

    team: str
    picks: int
    mean_gain: Mapping[Metric, float]


def team_gains(
    draft: Draft,
    surplus: Mapping[Metric, np.ndarray],
    keep: Optional[np.ndarray] = None,
) -> list[TeamGain]:
    """Mean ``surplus`` per pick of each team, over the rows of the mask
    ``keep`` (None: every row); ``surplus`` maps a metric to one outcome minus
    expectation per row of ``draft.columns``. Averaging, rather than totals,
    keeps teams with fewer drafts comparable to the rest of the league.
    """
    labels = draft.aligned(draft.columns.team, keep)
    teams, picks = np.unique(labels, return_counts=True)  # a bare np.unique imports numpy.ma
    team_of = teams.searchsorted(labels)
    # bincount adds each team's surpluses in row order, year by year
    means = {m: np.bincount(team_of, draft.aligned(row, keep)) / picks for m, row in surplus.items()}
    return [
        TeamGain(team.decode(), int(picks[k]), {m: float(v[k]) for m, v in means.items()})
        for k, team in enumerate(teams.tolist())
    ]


def normality_check(gains: Sequence[TeamGain], metric: Metric) -> TestResult:
    """Shapiro-Wilk over the team mean gains for one metric."""
    if len(gains) < 3:
        raise ValueError("need at least 3 teams")
    return shapiro_wilk([g.mean_gain[metric] for g in gains])


def split_half_correlation(
    draft: Draft,
    surplus: Mapping[Metric, np.ndarray],
    early_years: Sequence[int],
    late_years: Sequence[int],
) -> dict[Metric, TestResult]:
    """Correlation across teams between mean ``surplus`` gains in the early and
    late year halves; teams missing from either half are excluded."""

    def half_gains(years):
        rows = np.repeat([year in years for year in draft.years], np.diff(draft.bounds))
        return {g.team: g for g in team_gains(draft, surplus, rows)}

    early, late = half_gains(early_years), half_gains(late_years)
    common = sorted(set(early) & set(late))
    if len(common) < 3:
        raise ValueError("need at least 3 teams with picks in both halves")

    def means(half, metric):
        return [half[t].mean_gain[metric] for t in common]

    return {m: pearson(means(early, m), means(late, m)) for m in surplus}


def outlier_teams(gains: Sequence[TeamGain], metric: Metric) -> list[str]:
    """Teams whose mean gain sits beyond ``OUTLIER_SD`` standard deviations
    of the cross-team mean; reported, never asserted."""
    if len(gains) < 2:
        return []
    values = np.array([g.mean_gain[metric] for g in gains])
    mu, sd = values.mean(), values.std(ddof=1)
    if sd == 0:
        return []
    return [g.team for g, v in zip(gains, values) if abs(v - mu) > OUTLIER_SD * sd]
