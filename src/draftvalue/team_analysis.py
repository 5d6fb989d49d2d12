"""Per-team average scouting return, a normality check of the team gains,
and a split-half consistency correlation across early and late drafts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core_model import Draft, Metric
from .numerics import SmoothCurve, TestResult, pearson, shapiro_wilk
from .valuation import differential_points

OUTLIER_SD = 3.0  # a team's mean gain this many SDs from the league mean is an outlier


@dataclass(frozen=True)
class TeamGain:
    """One team's pick count and mean realized surplus per metric."""

    team: str
    picks: int
    mean_gain: Mapping[Metric, float]


def team_gains(
    draft: Draft,
    css_ranks: np.ndarray,
    css_curves: Mapping[Metric, SmoothCurve],
    keep: Optional[np.ndarray] = None,
) -> list[TeamGain]:
    """Average realized surplus (outcome minus scouting expectation) per team
    per pick, over the rows of the mask ``keep`` (None: every row).
    Averaging, rather than totals, keeps teams with fewer drafts comparable
    to the rest of the league.
    """
    teams, team_of = np.unique(draft.aligned(draft.columns.team, keep), return_inverse=True)
    picks = np.bincount(team_of)
    deltas = differential_points(draft, css_ranks, css_curves, keep)[1]
    # bincount adds each team's surpluses in pick order, year by year
    means = {m: np.bincount(team_of, weights=row) / picks for m, row in zip(css_curves, deltas)}
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
    css_ranks: np.ndarray,
    css_curves: Mapping[Metric, SmoothCurve],
    early_years: Sequence[int],
    late_years: Sequence[int],
) -> dict[Metric, TestResult]:
    """Correlation across teams between mean gains in the early and late
    year halves; teams missing from either half are excluded."""

    def half_gains(years):
        rows = np.repeat([dc.year in years for dc in draft], np.diff(draft.bounds))
        return {g.team: g for g in team_gains(draft, css_ranks, css_curves, rows)}

    early, late = half_gains(early_years), half_gains(late_years)
    common = sorted(set(early) & set(late))
    if len(common) < 3:
        raise ValueError("need at least 3 teams with picks in both halves")
    out = {}
    for metric in css_curves:
        x = [early[t].mean_gain[metric] for t in common]
        y = [late[t].mean_gain[metric] for t in common]
        out[metric] = pearson(x, y)
    return out


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
