"""Per-team average scouting return, a normality check of the team gains,
and a split-half consistency correlation across early and late drafts."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .core_model import DraftClass, Metric, aligned, pooled
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
    classes: Sequence[DraftClass],
    css_ranks: np.ndarray,
    css_curves: Mapping[Metric, SmoothCurve],
) -> list[TeamGain]:
    """Average realized surplus (outcome minus scouting expectation) per team
    per pick. Averaging, rather than totals, keeps teams with fewer drafts
    comparable to the rest of the league.
    """
    teams, team_of = np.unique(pooled(classes, "team"), return_inverse=True)
    picks = np.bincount(team_of)
    deltas = differential_points(classes, css_ranks, css_curves)[1]
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
    classes: Sequence[DraftClass],
    css_ranks: np.ndarray,
    css_curves: Mapping[Metric, SmoothCurve],
    early_years: Sequence[int],
    late_years: Sequence[int],
) -> dict[Metric, TestResult]:
    """Correlation across teams between mean gains in the early and late
    year halves; teams missing from either half are excluded."""

    def half_gains(years):
        in_half = [dc.year in years for dc in classes]  # one year mask for the classes and their rows
        rows = np.repeat(in_half, [len(dc) for dc in classes])
        gains = team_gains(list(compress(classes, in_half)), aligned(classes, css_ranks)[rows], css_curves)
        return {g.team: g for g in gains}

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
