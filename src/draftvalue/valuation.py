"""Expected-performance curves per ordering, rank/metric differentials, the
per-pick surplus from team scouting, its dollar conversion, and the monotone
draft value pick chart."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core_model import GROUP_OF_POSITION, GROUPS, Draft, Metric, PositionGroup
from .numerics import SmoothCurve, antitonic_fit, loess_fit

SELECTION_GRID = np.arange(1, 211, dtype=float)


@dataclass(frozen=True)
class DollarConstants:
    """Published conversion constants between the outcome metrics and dollars."""

    salary_per_game: float = 29300.0
    dollars_per_goal: float = 1_000_000.0 / 3.0
    minutes_per_game: float = 20.0
    picks_per_season: int = 7

    def __post_init__(self):
        values = (self.salary_per_game, self.dollars_per_goal, self.minutes_per_game, self.picks_per_season)
        if not all(0 < v < math.inf for v in values):
            raise ValueError("dollar constants must be positive and finite")


@dataclass(frozen=True)
class GainEstimate:
    """Average scouting surplus per pick, per draft, and in dollars."""

    metric: Metric
    per_pick: float
    per_draft: float
    dollars: float


@dataclass(frozen=True)
class ValueChart:
    """210 pick values, scaled to 1000 at the first selection and
    non-increasing down the draft."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != 210:
            raise ValueError(f"chart must have 210 entries, got {len(self.values)}")
        if self.values[0] != 1000:
            raise ValueError(f"value at pick 1 must be 1000, got {self.values[0]}")
        if any(b > a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("chart values must be non-increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("chart values must be non-negative")

    def value(self, selection: int) -> int:
        return self.values[selection - 1]

    def rows(self) -> list[tuple[int, int]]:
        return [(i + 1, v) for i, v in enumerate(self.values)]


def group_rows(draft: Draft, group: Optional[PositionGroup]) -> Optional[np.ndarray]:
    """The row mask of ``group`` over ``draft.columns``; None for every row."""
    return None if group is None else GROUP_OF_POSITION[draft.columns.position] == GROUPS.index(group)


def _pairs(draft: Draft, ranks: np.ndarray, metrics: Sequence[Metric], keep: Optional[np.ndarray]):
    """The pooled (rank, outcome) pairs in the rows of the mask ``keep``:
    the ranks, and the outcomes of ``metrics`` as one float row each."""
    x = draft.aligned(ranks, keep)
    values = np.empty((len(metrics), len(x)))
    for row, metric in zip(values, metrics):
        row[:] = draft.aligned(draft.columns.metrics[metric], keep)
    return x, values


def expected_curve(
    draft: Draft,
    ranks: np.ndarray,
    metrics: Sequence[Metric],
    span: float = 0.5,
    group: Optional[PositionGroup] = None,
) -> dict[Metric, SmoothCurve]:
    """Smoothed expected outcome of each of ``metrics`` at each of the 210
    draft ranks, pooling (rank, outcome) pairs across years under one
    ordering: ``ranks`` holds its pooled rank array. The metrics share
    their ranks, so one stacked fit gives every curve."""
    x, values = _pairs(draft, ranks, metrics, group_rows(draft, group))
    fit = loess_fit(x, values, grid=SELECTION_GRID, span=span)
    return dict(zip(metrics, fit.split()))


def differential_points(
    draft: Draft,
    css_order: np.ndarray,
    css_curves: Mapping[Metric, SmoothCurve],
    keep: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-player rank differential (actual slot minus integrated scouting
    rank; negative means the team reached ahead of the scouting consensus)
    and, one row per metric of ``css_curves`` in its order, the metric
    differential (realized outcome minus the expectation at the player's
    scouting rank), pooled across the rows of the mask ``keep`` (None:
    every row)."""
    # integer ranks read the curves at their nodes, and integer
    # differentials collapse their ties by bincount in the differential fit
    ranks, deltas = _pairs(draft, css_order, list(css_curves), keep)
    for row, curve in zip(deltas, css_curves.values()):
        row -= curve(ranks)
    return draft.aligned(draft.columns.selection, keep) - ranks, deltas


def fit_differential_curve(
    delta_rank: np.ndarray, delta_metric: np.ndarray, span: float = 0.5
) -> SmoothCurve:
    """Smooth the outcome surplus as a function of rank differential over the
    observed differential range; ``delta_metric`` is one row of surpluses
    or a (metrics, players) array of them, fitted in one stacked call."""
    if len(delta_rank) < 10:
        raise ValueError("need at least 10 differential points")
    dr = np.asarray(delta_rank)
    if dr.min() >= 0 or dr.max() <= 0:
        raise ValueError("differential points must span negative and positive delta_rank")
    grid = np.arange(math.floor(dr.min()), math.ceil(dr.max()) + 1, dtype=float)
    return loess_fit(dr, delta_metric, grid=grid, span=span)


def average_gain(curve: SmoothCurve, delta_ranks: Sequence[int]) -> float:
    """Average metric surplus per pick implied by the differential curve.

    Evaluates the curve at each pick's own differential; picks with zero
    differential contribute only to the denominator. The sign is fixed so a
    negatively-sloped curve (teams successfully deviating from the scouting
    order) yields a positive gain.
    """
    d = np.asarray(delta_ranks)
    if d.size == 0:
        raise ValueError("no selections")
    gain = curve(d)
    return (_running_total(gain[d < 0]) - _running_total(gain[d > 0])) / d.size


def _running_total(values: np.ndarray) -> float:
    """The sum of ``values`` added left to right, 0.0 when empty: neither
    numpy's pairwise ``sum`` nor the compensated ``sum()`` of Python 3.12+."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def to_dollars(gain_per_draft: float, metric: Metric, constants: DollarConstants = DollarConstants()) -> float:
    """Convert a per-draft metric gain to dollars using the published
    salary-per-game, dollars-per-goal and minutes-per-game constants."""
    if metric is Metric.GP:
        return gain_per_draft * constants.salary_per_game
    if metric is Metric.GVT:
        return gain_per_draft * constants.dollars_per_goal
    if metric is Metric.TOI:
        return gain_per_draft / constants.minutes_per_game * constants.salary_per_game
    raise ValueError(f"unknown metric {metric}")


def gain_estimate(
    curve: SmoothCurve,
    delta_ranks: Sequence[int],
    metric: Metric,
    constants: DollarConstants = DollarConstants(),
) -> GainEstimate:
    per_pick = average_gain(curve, delta_ranks)
    per_draft = per_pick * constants.picks_per_season
    return GainEstimate(
        metric=metric,
        per_pick=per_pick,
        per_draft=per_draft,
        dollars=to_dollars(per_draft, metric, constants),
    )


def draft_value_chart(toi_curve: SmoothCurve) -> ValueChart:
    """Build the pick chart from the expected TOI curve under the team
    ordering (ranked by actual selection): force it non-increasing, then
    scale to 1000 at pick 1 with half-up rounding."""
    mono = antitonic_fit(SELECTION_GRID, toi_curve(SELECTION_GRID))
    # smoothing can undershoot below zero in the tail; expected minutes are
    # non-negative, so floor the curve before scaling
    levels = np.maximum(mono.values, 0.0)
    top = levels[0]
    if top <= 0:
        raise ValueError("non-positive top value")
    values = tuple(int(math.floor(1000.0 * v / top + 0.5)) for v in levels)
    return ValueChart(values=values)
