"""Replay drafts under the team and integrated-scouting orderings and score
how often each pick was the best, or nearly the best, player still available
at the same position."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .core_model import POSITIONS, Draft, DraftColumns, Metric

BAND_EDGE = 90  # round bands: picks 1-90 are rounds 1-3 (30 picks a round), the rest 4-7
BLOCK_ROWS = 2048  # rows of whole classes replayed together: bounds the audit's temporaries


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


class _Replay(NamedTuple):
    """The replay of a run of whole classes under one ordering, shared by
    every metric. ``rows`` lists the run's rows grouped into (class,
    position) segments, each in replay order; ``offset`` keys every pick of
    a segment above every pick of a later one, in steps of the run's row
    count; ``early`` marks the picks among the first ``BAND_EDGE`` of their
    class's replay."""

    rows: np.ndarray
    offset: np.ndarray
    early: np.ndarray


def _replay_order(position: np.ndarray, ranks: np.ndarray, sizes: np.ndarray) -> tuple[_Replay, np.ndarray]:
    """The replay of consecutive classes of ``sizes`` rows each, by class
    and then by rank, tied ranks in row order; and the replay position of
    each pick of its ``rows``."""
    n = len(ranks)
    segments = len(sizes) * len(POSITIONS)
    # (class, position) codes in the least integer type, which sorts by radix
    segment = np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(-segments)), sizes)
    segment *= len(POSITIONS)
    order = np.lexsort((ranks, segment))
    segment += position[order]
    replay = segment.argsort(kind="stable")
    early = (np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes))[replay] < BAND_EDGE
    offset = np.multiply(segment[replay], -n, dtype=np.intp)
    offset += segments * n
    return _Replay(order[replay], offset, early), replay


def _by_value(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank among ``values`` (ties take distinct ranks) and the
    values in rank order."""
    order = values.argsort()
    ranked = np.empty(len(values), np.intp)
    ranked[order] = np.arange(len(values))
    return ranked, values[order]


def _replay(
    values: np.ndarray, ranked: np.ndarray, ordered: np.ndarray, r: _Replay, half_sd: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ``optimal`` and ``nearly_optimal`` flags of the picks ``r.rows``,
    each against the best same-position player of its class still available
    (the picked player included), read back through ``_by_value``.

    The best player still available is the reverse running maximum over
    the segment's later picks. Every segment runs in one reverse running
    maximum, since a later segment's keys all lie below every key of an
    earlier one; ties at the maximum count as optimal.
    """
    if not half_sd > 0:
        raise ValueError("half_sd must be positive")
    key = ranked[r.rows]
    key += r.offset
    best = ordered[np.maximum.accumulate(key[::-1])[::-1] - r.offset]
    value = values[r.rows]
    optimal = value >= best
    nearly_optimal = value >= best - half_sd
    if np.any(optimal & ~nearly_optimal):
        raise ValueError("optimal pick must also be nearly optimal")
    return optimal, nearly_optimal


def replay_flags(
    draft: Draft, ranks: np.ndarray, metric: Metric, half_sd: float
) -> tuple[np.ndarray, np.ndarray]:
    """Walk each class of ``draft`` in the order of ``ranks`` (one per row
    of ``draft.columns``; tied ranks in row order), flagging each pick
    against the best same-position player of its class still available
    (the picked player included).

    Returns boolean ``optimal`` and ``nearly_optimal`` arrays in replay
    order, class by class: the flags behind the counts ``audit`` makes.
    """
    values = draft.columns.metrics[metric]
    r, replay = _replay_order(draft.columns.position, draft.aligned(ranks), np.diff(draft.bounds))
    flags = np.empty((2, len(values)), dtype=bool)
    flags[:, replay] = _replay(values, *_by_value(values), r, half_sd)
    return flags[0], flags[1]


def half_sd_thresholds(draft: Draft, metrics: Iterable[Metric]) -> dict[Metric, float]:
    """Half of the pooled standard deviation (n-1 denominator) per metric."""
    out = {}
    for metric in metrics:
        values = draft.columns.metrics[metric]
        if values.size < 2:
            raise ValueError("need at least 2 records")
        out[metric] = float(np.std(values, ddof=1)) / 2.0
    return out


def _runs(bounds: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The bounds of runs of consecutive whole classes, each run of at most
    ``BLOCK_ROWS`` rows or of one class."""
    lo = 0
    for i in range(2, len(bounds)):
        if bounds[i] - bounds[lo] > BLOCK_ROWS:
            yield bounds[lo:i]
            lo = i - 1
    yield bounds[lo:]


def _percent(count: int, n: int) -> float:
    return 100.0 * int(count) / n if n else 0.0


def _run_counts(
    columns: DraftColumns, run: tuple[int, ...], ranks: Mapping[Ordering, np.ndarray], half_sd: Mapping[Metric, float]
) -> dict[tuple[Metric, Ordering], np.ndarray]:
    """Per (metric, ordering), the (optimal, nearly optimal) picks of the
    classes of ``run`` (rows ``run[0]:run[-1]``), of all picks and of the
    early ones: one pass each, the replays shared by the metrics and each
    metric's value ranks by the orderings. A run's temporaries are freed
    on return, before the next run's are built."""
    lo, hi = run[0], run[-1]
    sizes = np.diff(run)
    replays = {o: _replay_order(columns.position[lo:hi], r[lo:hi], sizes)[0] for o, r in ranks.items()}
    counts = {}
    for metric, threshold in half_sd.items():
        values = columns.metrics[metric][lo:hi]
        ranked, ordered = _by_value(values)
        for ordering, r in replays.items():
            optimal, nearly_optimal = _replay(values, ranked, ordered, r, threshold)
            counts[metric, ordering] = np.array([
                [np.count_nonzero(optimal), np.count_nonzero(nearly_optimal)],
                [np.count_nonzero(optimal & r.early), np.count_nonzero(nearly_optimal & r.early)],
            ])
    return counts


def audit(
    draft: Draft,
    ranks: Mapping[Ordering, np.ndarray],
    metrics: Sequence[Metric] = tuple(Metric),
) -> AuditReport:
    """Aggregate replay flags over all years into per-cell percentages, for
    each ordering in ``ranks`` (its pooled rank array, replayed year by
    year); the round bands split at ``BAND_EDGE`` picks into the replay.
    Runs of whole classes of at most ``BLOCK_ROWS`` rows replay together.
    """
    ranks = {o: draft.aligned(r) for o, r in ranks.items()}
    half_sd = half_sd_thresholds(draft, metrics)
    bounds = draft.bounds
    counts = {(m, o): np.zeros((2, 2), dtype=np.int64) for m in metrics for o in ranks}
    for run in _runs(bounds):
        for key, run_counts in _run_counts(draft.columns, run, ranks, half_sd).items():
            counts[key] += run_counts
    early = sum(min(hi - lo, BAND_EDGE) for lo, hi in zip(bounds, bounds[1:]))
    cells = {}
    for (metric, ordering), (every, first) in counts.items():
        bands = {"all": (bounds[-1], every), "1-3": (early, first), "4-7": (bounds[-1] - early, every - first)}
        for band, (n, (optimal, nearly_optimal)) in bands.items():
            cells[(metric, ordering, band)] = AuditCell(
                picks=n, optimal_pct=_percent(optimal, n), nearly_optimal_pct=_percent(nearly_optimal, n)
            )
    return AuditReport(cells=cells, half_sd=half_sd)
