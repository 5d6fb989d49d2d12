"""Domain types for drafted players: positions, scouting categories, seven-year
outcome metrics, row validation and imputation, the per-year columns the
analysis stages read, and descriptive summaries."""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, fields
from collections.abc import Sequence
from itertools import accumulate
from typing import Iterable, Mapping, Optional

import numpy as np

logger = logging.getLogger("draftvalue")


class Position(enum.Enum):
    """Fine-grained listed position of a drafted player."""

    C = "C"
    D = "D"
    F = "F"
    G = "G"
    L = "L"
    R = "R"


class PositionGroup(enum.Enum):
    """Coarse position grouping: forwards, defensemen, goalies."""

    F = "F"
    D = "D"
    G = "G"


class CssCategory(enum.Enum):
    """Central-scouting list a player appeared on, if any."""

    NA_SKATER = "NA_SKATER"
    NA_GOALIE = "NA_GOALIE"
    EU_SKATER = "EU_SKATER"
    EU_GOALIE = "EU_GOALIE"
    UNRANKED = "UNRANKED"


GOALIE_CATEGORIES = frozenset({CssCategory.NA_GOALIE, CssCategory.EU_GOALIE})
SKATER_CATEGORIES = frozenset({CssCategory.NA_SKATER, CssCategory.EU_SKATER})

MAX_SELECTION = 210


class Metric(enum.Enum):
    """Seven-year cumulative outcome metric."""

    TOI = "toi"
    GP = "gp"
    GVT = "gvt"


class RecordError(ValueError):
    """Invalid player record; ``field`` names the offending column."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class ImputationConfig:
    """Fill-in rules for players without NHL appearances and for goalie minutes.

    Defaults are the conventional values; the analysis is not sensitive to
    moderate alternatives.
    """

    never_played_gvt: float = -30.0
    goalie_minutes_per_game: float = 20.0

    def __post_init__(self):
        if not math.isfinite(self.never_played_gvt):
            raise ValueError("never_played_gvt must be finite")
        if not 0.0 <= self.goalie_minutes_per_game < math.inf:
            raise ValueError("goalie_minutes_per_game must be finite and >= 0")


def position_group(p: Position) -> PositionGroup:
    """Map a fine position to its group; C/L/R/F are all forwards."""
    if p is Position.D:
        return PositionGroup.D
    if p is Position.G:
        return PositionGroup.G
    return PositionGroup.F


POSITIONS = tuple(Position)
GROUPS = tuple(PositionGroup)
CATEGORIES = tuple(CssCategory)

_GOALIE = POSITIONS.index(Position.G)
_UNRANKED = CATEGORIES.index(CssCategory.UNRANKED)
GROUP_OF_POSITION = np.array([GROUPS.index(position_group(p)) for p in POSITIONS], np.int8)


@dataclass(frozen=True, eq=False)
class RawRows:
    """Parsed fields of player rows, before validation and imputation.
    ``position`` and ``css_category`` index ``POSITIONS`` and
    ``CATEGORIES``; an absent rank reads 0 and an absent ``toi7`` or
    ``gvt7`` NaN, and the ``has_*`` masks tell absent from given."""

    year: np.ndarray
    selection: np.ndarray
    team: np.ndarray
    name: np.ndarray
    position: np.ndarray
    css_category: np.ndarray
    css_category_rank: np.ndarray
    has_css_category_rank: np.ndarray
    gp7: np.ndarray
    toi7: np.ndarray
    has_toi7: np.ndarray
    gvt7: np.ndarray
    has_gvt7: np.ndarray


def _within(codes: np.ndarray, pair: frozenset, rows: np.ndarray) -> np.ndarray:
    """The ``rows`` whose code is one of the two in ``pair``, built in place (a lookup costs 8 B a row)."""
    a, b = (CATEGORIES.index(c) for c in pair)
    mask = codes == a
    mask |= codes == b
    mask &= rows
    return mask


def _record_rules(rows: RawRows):
    """Each record rule in order as (field, rows breaking the rule, message,
    column whose value it quotes); a mask is built only when it is read."""
    goalie = rows.position == _GOALIE
    ranked, category = rows.has_css_category_rank, rows.css_category
    toi7, gvt7 = rows.toi7, rows.gvt7
    yield "selection", rows.selection < 1, "must be >= 1, got {}", rows.selection
    yield "gp7", rows.gp7 < 0, "must be >= 0, got {}", rows.gp7
    yield "toi7", rows.has_toi7 & ~np.isfinite(toi7), "must be finite, got {}", toi7
    yield "gvt7", rows.has_gvt7 & ~np.isfinite(gvt7), "must be finite, got {}", gvt7
    yield "toi7", rows.has_toi7 & (toi7 < 0), "must be >= 0, got {}", toi7
    yield (
        "css_category_rank",
        ranked == (category == _UNRANKED),
        "rank must be present exactly when the player is category-ranked",
        None,
    )
    yield "css_category_rank", ranked & (rows.css_category_rank < 1), "must be >= 1", None
    yield "css_category", _within(category, SKATER_CATEGORIES, goalie), "goalie cannot carry a skater category", None
    yield "css_category", _within(category, GOALIE_CATEGORIES, ~goalie), "skater cannot carry a goalie category", None
    yield "toi7", ~rows.has_toi7 & (rows.gp7 != 0) & ~goalie, "missing for a skater with NHL games", None
    yield "gvt7", ~rows.has_gvt7 & (rows.gp7 != 0), "missing for a player with NHL games", None


def first_invalid_row(rows: RawRows) -> Optional[tuple[int, RecordError]]:
    """The index of the first row that breaks a record rule and the error of
    the first rule it breaks, or None when every row is valid."""
    broken = np.zeros(len(rows.year), bool)
    for _, mask, _, _ in _record_rules(rows):
        broken |= mask  # in place, and one mask at a time
        del mask
    if not broken.any():
        return None
    i = int(np.argmax(broken))
    field, _, message, quoted = next(rule for rule in _record_rules(rows) if rule[1][i])
    return i, RecordError(field, message if quoted is None else message.format(quoted[i]))


def impute(rows: RawRows, config: ImputationConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ``toi7`` and ``gvt7`` columns of valid rows after imputation.

    Players with no NHL games get the floor GVT value and zero TOI; goalies
    get a fixed number of minutes per game appeared.
    """
    never_played = rows.gp7 == 0
    toi7 = np.where(never_played, 0.0, rows.toi7)
    toi7 = np.where(rows.position == _GOALIE, config.goalie_minutes_per_game * rows.gp7, toi7)
    return toi7, np.where(never_played, config.never_played_gvt, rows.gvt7)


@dataclass(frozen=True, eq=False)
class DraftColumns:
    """Read-only numpy columns of one draft class, one row per player.

    ``position`` and ``category`` are indices into ``POSITIONS`` and
    ``CATEGORIES``; ``category_rank`` is 0 for unranked players; ``metrics``
    holds one column per outcome metric: integer games, float TOI and GVT.
    ``team`` and ``name`` hold UTF-8 bytes (``S`` dtype), decoded only where
    a ``str`` leaves the program.
    """

    selection: np.ndarray
    position: np.ndarray
    team: np.ndarray
    name: np.ndarray
    category: np.ndarray
    category_rank: np.ndarray
    metrics: Mapping[Metric, np.ndarray]

    def __post_init__(self):
        columns = {name: getattr(self, name) for name in _ARRAYS}
        columns.update((m.value, column) for m, column in self.metrics.items())
        for name in ("team", "name"):
            if columns[name].dtype.kind != "S":
                raise ValueError(f"column {name} must hold UTF-8 bytes, got dtype {columns[name].dtype}")
        n = len(self.selection)
        for name, column in columns.items():
            if len(column) != n:
                raise ValueError(f"column {name} has {len(column)} rows, selection has {n}")
            column.flags.writeable = False

    def __reduce__(self):  # copy and pickle rebuild through __post_init__, which sets the flags
        return DraftColumns, tuple(getattr(self, f.name) for f in fields(self))

    def rows(self, lo: int, hi: int) -> "DraftColumns":
        """Rows ``lo:hi`` of every column, as views."""
        metrics = {m: column[lo:hi] for m, column in self.metrics.items()}
        return DraftColumns(**{name: getattr(self, name)[lo:hi] for name in _ARRAYS}, metrics=metrics)


_ARRAYS = tuple(f.name for f in fields(DraftColumns) if f.name != "metrics")


class Draft(Sequence):
    """The draft classes of one analysis, year by year, over one table:
    ``columns`` holds every row, class ``i`` the year ``years[i]`` and rows
    ``bounds[i]:bounds[i + 1]``; a pooled rank array has one entry per row.
    A class is a ``Draft`` of one year: ``draft[i]`` builds class ``i`` when
    read, over a view of the table, so no per-year object is kept.
    ``len(draft)`` counts classes. ``Draft(drafts)`` joins by copying."""

    __slots__ = ("columns", "years", "bounds")

    def __new__(cls, drafts: Iterable["Draft"]) -> "Draft":
        drafts = tuple(drafts)
        if not drafts:
            raise ValueError("a draft needs at least one class")
        parts = [d.columns for d in drafts]
        columns = {name: np.concatenate([getattr(c, name) for c in parts]) for name in _ARRAYS}
        metrics = {m: np.concatenate([c.metrics[m] for c in parts]) for m in parts[0].metrics}
        sizes = (hi - lo for d in drafts for lo, hi in zip(d.bounds, d.bounds[1:]))
        years = tuple(year for d in drafts for year in d.years)
        return cls.over(DraftColumns(**columns, metrics=metrics), years, (0, *accumulate(sizes)))

    @classmethod
    def over(cls, columns: DraftColumns, years: Sequence[int], bounds: Sequence[int]) -> "Draft":
        """The draft over ``columns`` whose class ``i``, the year ``years[i]``, is rows
        ``bounds[i]:bounds[i + 1]``. Raises ``ValueError`` naming the year of the first class
        with no rows or whose selections do not strictly increase or number over ``MAX_SELECTION``."""
        selection, edges = columns.selection, np.asarray(bounds)
        down = np.flatnonzero(selection[1:] <= selection[:-1]) + 1  # rows not above the row before
        classes = np.searchsorted(edges, down, side="right") - 1
        unordered = classes[down != edges[classes]].tolist()  # each class starts over
        sizes = np.diff(edges)
        misfit = np.flatnonzero((sizes == 0) | (sizes > MAX_SELECTION)).tolist()
        if unordered or misfit:
            i = min(unordered + misfit)
            rule = ("selections must be strictly increasing" if i in unordered
                    else "empty draft class" if sizes[i] == 0 else f"more than {MAX_SELECTION} selections")
            raise ValueError(f"year {years[i]}: {rule}")
        draft = object.__new__(cls)
        draft.columns, draft.years, draft.bounds = columns, tuple(years), tuple(bounds)
        return draft

    def __reduce__(self):  # copy and pickle rebuild the draft over the same table
        return Draft.over, (self.columns, self.years, self.bounds)

    def __len__(self) -> int:
        return len(self.years)

    def __getitem__(self, index: int) -> "Draft":
        i = range(len(self))[index]
        lo, hi = self.bounds[i], self.bounds[i + 1]
        return Draft.over(self.columns.rows(lo, hi), (self.years[i],), (0, hi - lo))

    @property
    def records(self) -> np.ndarray:
        """``columns.selection``, so ``len(draft.records)`` counts rows: kept only because
        ``bench/tracing.py`` counts rows that way, it goes once the tracer reads the columns."""
        return self.columns.selection

    def aligned(self, values: np.ndarray, keep: Optional[np.ndarray] = None) -> np.ndarray:
        """``values``, checked to hold one entry per row, in the rows of the
        mask ``keep`` (None: every row, and ``values`` itself)."""
        if len(values) != len(self.columns.selection):
            raise ValueError(f"{len(values)} ranks for {len(self.columns.selection)} rows")
        return values if keep is None else values.compress(keep)


def draft_classes(rows: RawRows, imputation: ImputationConfig) -> Draft:
    """Valid rows sorted by year and selection, imputed, as one ``Draft``
    over the columns of ``rows``, one class per year, whose rules are checked
    once over the table. Missing selections within a year are logged."""
    if not rows.year.size:
        raise ValueError("a draft needs at least one row")
    toi7, gvt7 = impute(rows, imputation)
    table = dict(selection=rows.selection, position=rows.position, team=rows.team, name=rows.name,
                 category=rows.css_category, category_rank=rows.css_category_rank)
    metrics = {Metric.GP: rows.gp7, Metric.TOI: toi7, Metric.GVT: gvt7}
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(rows.year)) + 1, [rows.year.size]))
    lo, hi, years, sels = bounds[:-1], bounds[1:], rows.year[bounds[:-1]], rows.selection
    draft = Draft.over(DraftColumns(**table, metrics=metrics), years.tolist(), bounds.tolist())
    for i in np.flatnonzero(sels[hi - 1] - sels[lo] >= hi - lo):
        missing = np.setdiff1d(np.arange(sels[lo[i]], sels[hi[i] - 1] + 1), sels[lo[i] : hi[i]])
        logger.info("year %d: missing selection(s) %s", years[i], missing.tolist())
    return draft


@dataclass(frozen=True)
class SummaryStats:
    """Five-number descriptive summary of a pooled metric."""

    median: float
    mean: float
    p75: float
    max: float
    sd: float


def summarize_metric(draft: Draft, metric: Metric) -> SummaryStats:
    """Descriptive summary of a pooled metric; sd uses the n-1 denominator and
    the 75th percentile interpolates linearly between order statistics."""
    values = draft.columns.metrics[metric]
    if values.size < 2:
        raise ValueError("need at least 2 records to summarize")
    return SummaryStats(
        median=float(np.median(values)),
        mean=float(np.mean(values)),
        p75=float(np.percentile(values, 75)),
        max=float(np.max(values)),
        sd=float(np.std(values, ddof=1)),
    )
