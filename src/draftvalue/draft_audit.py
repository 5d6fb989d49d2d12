"""Replay drafts under the team and integrated-scouting orderings and score
how often each pick was the best, or nearly the best, player still available
at the same position."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core_model import POSITIONS, Draft, DraftClass, Metric

BAND_EDGE = 90  # round bands: picks 1-90 are rounds 1-3 (30 picks a round), the rest 4-7


class Ordering(enum.Enum):
    TEAM = "team"
    CSS = "css"


@dataclass(frozen=True)
class AuditCell:
    picks: int
    optimal_pct: float
    nearly_optimal_pct: float


@dataclass(frozen=True)
class AuditReport:
    """Optimal / nearly-optimal percentages per metric x ordering x round band."""

    cells: Mapping[tuple[Metric, Ordering, str], AuditCell]
    half_sd: Mapping[Metric, float]

    def cell(self, metric: Metric, ordering: Ordering, band: str = "all") -> AuditCell:
        return self.cells[(metric, ordering, band)]

    def rows(self) -> list[dict]:
        out = []
        for (metric, ordering, band), cell in self.cells.items():
            out.append(
                {
                    "metric": metric.value,
                    "ordering": ordering.value,
                    "rounds": band,
                    "picks": cell.picks,
                    "optimal_pct": cell.optimal_pct,
                    "nearly_optimal_pct": cell.nearly_optimal_pct,
                }
            )
        return out


def replay_flags(
    dc: DraftClass, ranks: np.ndarray, metric: Metric, half_sd: float
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the draft in the order of ``ranks`` (one per row of
    ``dc.columns``), flagging each pick against the best same-position
    player still available (the picked player included).

    Returns boolean ``optimal`` and ``nearly_optimal`` arrays in replay
    order. The best player still available at a position is the reverse
    running maximum over that position's picks. Ties at the maximum count as
    optimal.

    All positions run in one reverse running maximum: each value is keyed by
    its exact rank among the year's n values (ties share one), offset by n
    times (positions - code), so over the picks in (position, replay) order
    a later position's keys all lie below every key of an earlier one.
    """
    if not half_sd > 0:
        raise ValueError("half_sd must be positive")
    if len(ranks) != len(dc):
        raise ValueError(f"{len(ranks)} ranks for {len(dc)} rows")
    # ndarray methods skip the Python wrapper of np.argsort and np.searchsorted
    order = ranks.argsort()
    value = dc.columns.metrics[metric][order]
    n = len(value)
    ordered = np.sort(value)
    position = dc.columns.position[order]
    segments = position.argsort(kind="stable")
    key = len(POSITIONS) - position[segments].astype(np.intp)
    key *= n
    key += ordered.searchsorted(value[segments])
    best = np.empty_like(value)
    best[segments] = ordered[np.maximum.accumulate(key[::-1])[::-1] % n]
    optimal = value >= best
    nearly_optimal = value >= best - half_sd
    if np.any(optimal & ~nearly_optimal):
        raise ValueError("optimal pick must also be nearly optimal")
    return optimal, nearly_optimal


def half_sd_thresholds(draft: Draft, metrics: Iterable[Metric]) -> dict[Metric, float]:
    """Half of the pooled standard deviation (n-1 denominator) per metric."""
    out = {}
    for metric in metrics:
        values = draft.columns.metrics[metric]
        if values.size < 2:
            raise ValueError("need at least 2 records")
        out[metric] = float(np.std(values, ddof=1)) / 2.0
    return out


def _percent(flags: np.ndarray, n: int) -> float:
    return 100.0 * int(np.count_nonzero(flags)) / n if n else 0.0


def audit(
    draft: Draft,
    ranks: Mapping[Ordering, np.ndarray],
    metrics: Sequence[Metric] = tuple(Metric),
) -> AuditReport:
    """Aggregate replay flags over all years into per-cell percentages, for
    each ordering in ``ranks`` (its pooled rank array, replayed year by
    year); the round bands split at ``BAND_EDGE`` picks into the replay.
    """
    bounds = draft.bounds
    ranks = {o: draft.aligned(r) for o, r in ranks.items()}
    half_sd = half_sd_thresholds(draft, metrics)
    early = np.zeros(bounds[-1], dtype=bool)  # the rows of picks 1..BAND_EDGE of each replay
    for lo, hi in zip(bounds, bounds[1:]):
        early[lo : min(lo + BAND_EDGE, hi)] = True
    bands = {"all": np.ones_like(early), "1-3": early, "4-7": ~early}
    optimal, nearly_optimal = np.empty((2, bounds[-1]), dtype=bool)
    cells = {}
    for metric in metrics:
        for ordering, r in ranks.items():
            for dc, lo, hi in zip(draft, bounds, bounds[1:]):
                optimal[lo:hi], nearly_optimal[lo:hi] = replay_flags(dc, r[lo:hi], metric, half_sd[metric])
            for band, picked in bands.items():
                n = int(np.count_nonzero(picked))
                cells[(metric, ordering, band)] = AuditCell(
                    picks=n,
                    optimal_pct=_percent(optimal & picked, n),
                    nearly_optimal_pct=_percent(nearly_optimal & picked, n),
                )
    return AuditReport(cells=cells, half_sd=half_sd)
