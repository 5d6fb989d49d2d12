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


@dataclass(frozen=True)
class PlayerRecord:
    """One drafted player with identity, draft slot, scouting rank and
    post-imputation seven-year outcomes.

    ``css_category_rank`` is the player's rank within his category list and is
    absent exactly when the category is UNRANKED. ``toi7`` is minutes,
    ``gp7`` games, ``gvt7`` goals versus threshold.
    """

    year: int
    selection: int
    team: str
    name: str
    position: Position
    css_category: CssCategory
    css_category_rank: Optional[int]
    gp7: int
    toi7: Optional[float]
    gvt7: Optional[float]


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
_IS_GOALIE_CATEGORY = np.array([c in GOALIE_CATEGORIES for c in CATEGORIES])
_IS_SKATER_CATEGORY = np.array([c in SKATER_CATEGORIES for c in CATEGORIES])
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


def first_invalid_row(rows: RawRows) -> Optional[tuple[int, RecordError]]:
    """The index of the first row that breaks a record rule and the error of
    the first rule it breaks, or None when every row is valid."""
    goalie = rows.position == _GOALIE
    ranked = rows.has_css_category_rank
    toi7, gvt7 = rows.toi7, rows.gvt7
    # (field, rows breaking the rule, message, column whose value it quotes)
    rules = (
        ("selection", rows.selection < 1, "must be >= 1, got {}", rows.selection),
        ("gp7", rows.gp7 < 0, "must be >= 0, got {}", rows.gp7),
        ("toi7", rows.has_toi7 & ~np.isfinite(toi7), "must be finite, got {}", toi7),
        ("gvt7", rows.has_gvt7 & ~np.isfinite(gvt7), "must be finite, got {}", gvt7),
        ("toi7", rows.has_toi7 & (toi7 < 0), "must be >= 0, got {}", toi7),
        (
            "css_category_rank",
            ranked == (rows.css_category == _UNRANKED),
            "rank must be present exactly when the player is category-ranked",
            None,
        ),
        ("css_category_rank", ranked & (rows.css_category_rank < 1), "must be >= 1", None),
        (
            "css_category",
            goalie & _IS_SKATER_CATEGORY[rows.css_category],
            "goalie cannot carry a skater category",
            None,
        ),
        (
            "css_category",
            ~goalie & _IS_GOALIE_CATEGORY[rows.css_category],
            "skater cannot carry a goalie category",
            None,
        ),
        (
            "toi7",
            ~rows.has_toi7 & (rows.gp7 != 0) & ~goalie,
            "missing for a skater with NHL games",
            None,
        ),
        ("gvt7", ~rows.has_gvt7 & (rows.gp7 != 0), "missing for a player with NHL games", None),
    )
    broken = np.logical_or.reduce([mask for _, mask, _, _ in rules])
    if not broken.any():
        return None
    i = int(np.argmax(broken))
    field, _, message, quoted = next(rule for rule in rules if rule[1][i])
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
        columns = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "metrics"}
        columns.update((m.value, column) for m, column in self.metrics.items())
        for name in ("team", "name"):
            if columns[name].dtype.kind != "S":
                raise ValueError(f"column {name} must hold UTF-8 bytes, got dtype {columns[name].dtype}")
        n = len(self.selection)
        for name, column in columns.items():
            if len(column) != n:
                raise ValueError(f"column {name} has {len(column)} rows, selection has {n}")
            column.flags.writeable = False


@dataclass(frozen=True, eq=False)
class DraftClass:
    """One draft year's players as columns, sorted by selection.

    At most 210 selections; any number of slots may be missing (one historical
    pick was invalidated), and the loader logs the missing ones. The loader
    and ``synth`` build classes with ``draft_classes``. ``records`` is a
    read-only ``PlayerRecord`` view that builds a record only when one is
    read; ``bench/tracing.py`` counts rows with ``len(dc.records)``.
    """

    year: int
    columns: DraftColumns

    def __post_init__(self):
        selection = self.columns.selection
        if np.any(selection[1:] <= selection[:-1]):
            raise ValueError(f"year {self.year}: selections must be strictly increasing")
        if len(selection) > MAX_SELECTION:
            raise ValueError(f"year {self.year}: more than {MAX_SELECTION} selections")

    def __len__(self) -> int:
        return len(self.columns.selection)

    @property
    def records(self) -> "RecordView":
        return RecordView(self)


class RecordView(Sequence):
    """The players of a draft class as ``PlayerRecord`` objects, each built
    from the columns when it is read."""

    def __init__(self, dc: DraftClass):
        self._dc = dc

    def __len__(self) -> int:
        return len(self._dc)

    def __getitem__(self, index: int) -> PlayerRecord:
        i = range(len(self))[index]
        c = self._dc.columns
        return PlayerRecord(
            year=self._dc.year,
            selection=int(c.selection[i]),
            team=c.team[i].decode(),
            name=c.name[i].decode(),
            position=POSITIONS[c.position[i]],
            css_category=CATEGORIES[c.category[i]],
            css_category_rank=int(c.category_rank[i]) or None,
            gp7=int(c.metrics[Metric.GP][i]),
            toi7=float(c.metrics[Metric.TOI][i]),
            gvt7=float(c.metrics[Metric.GVT][i]),
        )


class Draft(tuple):
    """The draft classes of one analysis, year by year, over one table:
    ``columns`` joins their columns, class ``i`` holding rows
    ``bounds[i]:bounds[i + 1]``, and a pooled rank array has one entry per
    row. ``Draft(classes)`` joins by copying; the classes that
    ``draft_classes`` builds are slices of the draft's columns."""

    columns: DraftColumns

    def __new__(cls, classes: Iterable[DraftClass]) -> "Draft":
        classes = tuple(classes)
        parts = [dc.columns for dc in classes]
        names = [f.name for f in fields(DraftColumns) if f.name != "metrics"]
        columns = {name: np.concatenate([getattr(c, name) for c in parts]) for name in names}
        metrics = {m: np.concatenate([c.metrics[m] for c in parts]) for m in parts[0].metrics}
        return cls._over(classes, DraftColumns(**columns, metrics=metrics))

    @classmethod
    def _over(cls, classes: tuple[DraftClass, ...], columns: DraftColumns) -> "Draft":
        draft = super().__new__(cls, classes)
        draft.columns = columns
        return draft

    @property
    def bounds(self) -> tuple[int, ...]:
        """Computed on each read: kept, the tuple held 1.9 KB of ints at 50 years."""
        return tuple(accumulate(map(len, self), initial=0))

    def aligned(self, values: np.ndarray, keep: Optional[np.ndarray] = None) -> np.ndarray:
        """``values``, checked to hold one entry per row, in the rows of the
        mask ``keep`` (None: every row, and ``values`` itself)."""
        if len(values) != len(self.columns.selection):
            raise ValueError(f"{len(values)} ranks for {len(self.columns.selection)} rows")
        return values if keep is None else values.compress(keep)


def draft_classes(rows: RawRows, imputation: ImputationConfig) -> Draft:
    """Valid rows sorted by year and selection, imputed, as one ``Draft``
    over the columns of ``rows`` whose classes, one per year, read slices of
    them. Missing selections within a year are logged."""
    toi7, gvt7 = impute(rows, imputation)
    table = dict(selection=rows.selection, position=rows.position, team=rows.team, name=rows.name,
                 category=rows.css_category, category_rank=rows.css_category_rank)
    metrics = {Metric.GP: rows.gp7, Metric.TOI: toi7, Metric.GVT: gvt7}
    bounds = [0, *(np.flatnonzero(np.diff(rows.year)) + 1).tolist(), rows.year.size]
    classes = []
    for lo, hi in zip(bounds, bounds[1:]):
        sels = rows.selection[lo:hi]
        if sels[-1] - sels[0] >= len(sels):
            missing = np.setdiff1d(np.arange(sels[0], sels[-1] + 1), sels)
            logger.info("year %d: missing selection(s) %s", rows.year[lo], missing.tolist())
        columns = DraftColumns(
            **{name: c[lo:hi] for name, c in table.items()}, metrics={m: c[lo:hi] for m, c in metrics.items()}
        )
        classes.append(DraftClass(int(rows.year[lo]), columns))
    return Draft._over(tuple(classes), DraftColumns(**table, metrics=metrics))


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
