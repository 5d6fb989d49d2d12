"""Expected-performance curves per ordering, rank/metric differentials, the
per-pick surplus from team scouting, its dollar conversion, and the monotone
draft value pick chart."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .core_model import GROUP_OF_POSITION, GROUPS, MAX_SELECTION, Draft, Metric, PositionGroup
from .numerics import SmoothCurve, antitonic_fit, loess_fit

SELECTION_GRID = np.arange(1, MAX_SELECTION + 1, dtype=float)


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
        if len(self.values) != MAX_SELECTION:
            raise ValueError(f"chart must have {MAX_SELECTION} entries, got {len(self.values)}")
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


def expected_curve(
    draft: Draft,
    ranks: Union[np.ndarray, tuple[np.ndarray, ...]],
    metrics: Sequence[Metric],
    span: float = 0.5,
    group: Optional[PositionGroup] = None,
) -> Union[dict[Metric, SmoothCurve], list[dict[Metric, SmoothCurve]]]:
    """Smoothed expected outcome of each of ``metrics`` at each of the 210
    draft ranks, pooling (rank, outcome) pairs across years under one
    ordering: ``ranks`` holds its pooled rank array. The metrics share
    their ranks, so one stacked fit, reading one metric column at a time,
    gives every curve.

    A tuple of rank arrays, one per ordering, gives one such dict per array.
    The orderings share one fit over the selections when ``_shares_slots``
    holds: each ordering's outcomes are read into slot order, so each
    distinct x adds the same rows in the same class order as in that
    ordering's own fit, and every curve is bit-identical to it. Any other
    input, and any ``group``, fits each ordering on its own."""
    one = not isinstance(ranks, tuple)
    ranks, keep, columns = (ranks,) if one else ranks, group_rows(draft, group), draft.columns.metrics
    if len(ranks) > 1 and keep is None and _shares_slots(draft, ranks):
        selection = draft.columns.selection  # the team ranks: each row is its own slot
        outcomes = (columns[m] if r is selection else _in_slots(draft, r, columns[m]) for r in ranks for m in metrics)
        fits = [loess_fit(selection, outcomes, grid=SELECTION_GRID, span=span)]
    else:
        fits = [
            loess_fit(draft.aligned(r, keep), (draft.aligned(columns[m], keep) for m in metrics), SELECTION_GRID, span)
            for r in ranks
        ]
    curves = [curve for fit in fits for curve in fit.split()]
    by_ordering = [dict(zip(metrics, curves[i * len(metrics) :])) for i in range(len(ranks))]
    return by_ordering[0] if one else by_ordering


SLOT_ROWS = 1024  # rows whose slots one intp index holds: never a whole column


def _in_slots(draft: Draft, ranks: np.ndarray, column: np.ndarray) -> np.ndarray:
    """``column`` with the value of each row moved to its slot under
    ``ranks``, the row of its class whose selection is its rank, on a draft
    whose classes hold selections 1..N; a slot outside the column is clipped
    into it, and a slot no row moves to holds 0."""
    slotted, selection = np.zeros_like(column), draft.columns.selection
    for at in range(0, len(column), SLOT_ROWS):
        rows = slice(at, min(at + SLOT_ROWS, len(column)))
        np.put(slotted, np.arange(rows.start, rows.stop) - selection[rows] + ranks[rows], column[rows], mode="clip")
    return slotted


def _shares_slots(draft: Draft, ranks: Sequence[np.ndarray]) -> bool:
    """Whether every class of ``draft`` holds selections 1..N, which its
    first and last selections show, and each of ``ranks`` is an integer
    array that puts each class's rows on distinct slots 1..N of that class.

    Read into slot order, such ranks are the selections. Conversely, if they
    are, every slot is filled, so no two rows share one, and a rank that
    equals the selection of its slot puts the row in its own class: a rank
    r_i of row i in another class's slot would differ from that slot's
    selection by the distance between the two classes' starts."""
    selection, bounds = draft.columns.selection, np.asarray(draft.bounds)
    return bool(
        np.all(selection[bounds[:-1]] == 1)
        and np.all(selection[bounds[1:] - 1] == np.diff(bounds))
        and all(
            r is selection or draft.aligned(r).dtype.kind == "i" and np.array_equal(_in_slots(draft, r, r), selection)
            for r in ranks
        )
    )


class _Surplus(Mapping):
    """Per-pick metric differentials over the rows of the mask ``keep``,
    each built from the columns of ``draft`` when it is read and not kept."""

    def __init__(self, draft: Draft, ranks: np.ndarray, curves: Mapping[Metric, SmoothCurve], keep):
        self._draft, self._ranks, self._curves, self._keep = draft, ranks, curves, keep

    def __getitem__(self, metric: Metric) -> np.ndarray:
        expected = self._curves[metric](self._ranks)
        outcome = self._draft.aligned(self._draft.columns.metrics[metric], self._keep)
        return np.subtract(outcome, expected, out=expected)

    def __iter__(self):
        return iter(self._curves)

    def __len__(self) -> int:
        return len(self._curves)


def differential_points(
    draft: Draft,
    css_order: np.ndarray,
    css_curves: Mapping[Metric, SmoothCurve],
    keep: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Mapping[Metric, np.ndarray]]:
    """Per-player rank differential (actual slot minus integrated scouting
    rank; negative means the team reached ahead of the scouting consensus)
    and, for each metric of ``css_curves``, the metric differential
    (realized outcome minus the expectation at the player's scouting rank),
    pooled across the rows of the mask ``keep`` (None: every row).

    The metric differentials are a read-only mapping that builds a metric's
    row each time it is read, so no (metrics, players) table is held."""
    # integer ranks read the curves at their nodes, and integer
    # differentials collapse their ties by bincount in the differential fit
    ranks = draft.aligned(css_order, keep)
    surplus = _Surplus(draft, ranks, css_curves, keep)
    return draft.aligned(draft.columns.selection, keep) - ranks, surplus


def fit_differential_curve(
    delta_rank: np.ndarray, delta_metric: np.ndarray, span: float = 0.5
) -> SmoothCurve:
    """Smooth the outcome surplus as a function of rank differential over the
    observed differential range; ``delta_metric`` is one row of surpluses
    or an iterable of such rows, one per metric, fitted in one stacked call
    that reads them one at a time."""
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
    """The gain per pick, per draft and in dollars; ``ValueError`` if one is not finite."""
    per_pick = average_gain(curve, delta_ranks)
    per_draft = per_pick * constants.picks_per_season
    dollars = to_dollars(per_draft, metric, constants)
    if not all(map(math.isfinite, (per_pick, per_draft, dollars))):
        raise ValueError(f"{metric.value} gain not finite: {per_pick} a pick, {per_draft} a draft, {dollars} dollars")
    return GainEstimate(metric, per_pick, per_draft, dollars)


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
