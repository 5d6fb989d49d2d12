"""Domain types for drafted players: positions, scouting categories, seven-year
outcome metrics, record normalization, the per-year column view the
analysis stages read, and descriptive summaries."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np


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


def validate_record(r: PlayerRecord) -> None:
    """Raise RecordError on a structurally invalid record."""
    if r.selection < 1:
        raise RecordError("selection", f"must be >= 1, got {r.selection}")
    if r.gp7 < 0:
        raise RecordError("gp7", f"must be >= 0, got {r.gp7}")
    for name in ("toi7", "gvt7"):
        value = getattr(r, name)
        if value is not None and not math.isfinite(value):
            raise RecordError(name, f"must be finite, got {value}")
    if r.toi7 is not None and r.toi7 < 0:
        raise RecordError("toi7", f"must be >= 0, got {r.toi7}")
    if (r.css_category_rank is None) != (r.css_category is CssCategory.UNRANKED):
        raise RecordError(
            "css_category_rank",
            "rank must be present exactly when the player is category-ranked",
        )
    if r.css_category_rank is not None and r.css_category_rank < 1:
        raise RecordError("css_category_rank", "must be >= 1")
    is_goalie = r.position is Position.G
    if is_goalie and r.css_category in SKATER_CATEGORIES:
        raise RecordError("css_category", "goalie cannot carry a skater category")
    if not is_goalie and r.css_category in GOALIE_CATEGORIES:
        raise RecordError("css_category", "skater cannot carry a goalie category")


def normalize_record(
    raw: PlayerRecord, config: ImputationConfig = ImputationConfig()
) -> PlayerRecord:
    """Apply the imputation rules and return a fully-populated record.

    Players with no NHL games get the floor GVT value and zero TOI; goalies
    get a fixed number of minutes per game appeared. Idempotent.
    """
    validate_record(raw)
    gp7 = raw.gp7
    toi7 = raw.toi7
    gvt7 = raw.gvt7
    if gp7 == 0:
        gvt7 = config.never_played_gvt
        toi7 = 0.0
    if raw.position is Position.G:
        toi7 = config.goalie_minutes_per_game * gp7
    if toi7 is None:
        raise RecordError("toi7", "missing for a skater with NHL games")
    if gvt7 is None:
        raise RecordError("gvt7", "missing for a player with NHL games")
    out = replace(raw, toi7=float(toi7), gvt7=float(gvt7))
    validate_record(out)
    return out


POSITIONS = tuple(Position)
GROUPS = tuple(PositionGroup)
CATEGORIES = tuple(CssCategory)


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DraftColumns:
    """Read-only numpy columns of one draft class, aligned with its records.

    ``position``, ``group`` and ``category`` are indices into ``POSITIONS``,
    ``GROUPS`` and ``CATEGORIES``; ``category_rank`` is 0 for unranked
    players; ``metrics`` holds one float column per outcome metric.
    """

    selection: np.ndarray
    position: np.ndarray
    group: np.ndarray
    team: np.ndarray
    category: np.ndarray
    category_rank: np.ndarray
    metrics: Mapping[Metric, np.ndarray]

    @classmethod
    def from_records(cls, records: Sequence[PlayerRecord]) -> "DraftColumns":
        return cls(
            selection=_frozen([r.selection for r in records], np.int64),
            position=_frozen([POSITIONS.index(r.position) for r in records], np.int8),
            group=_frozen([GROUPS.index(position_group(r.position)) for r in records], np.int8),
            team=_frozen([r.team for r in records], str),
            category=_frozen([CATEGORIES.index(r.css_category) for r in records], np.int8),
            category_rank=_frozen([r.css_category_rank or 0 for r in records], np.int64),
            metrics={
                m: _frozen([getattr(r, f"{m.value}7") for r in records], float) for m in Metric
            },
        )


@dataclass(frozen=True)
class DraftClass:
    """All records for one draft year, sorted by selection.

    At most 210 selections; any number of slots may be missing (one historical
    pick was invalidated), and the loader logs the missing ones. The analysis
    stages read ``columns``, built once from ``records`` on first use.
    """

    year: int
    records: tuple[PlayerRecord, ...]

    def __post_init__(self):
        sels = [r.selection for r in self.records]
        if any(b <= a for a, b in zip(sels, sels[1:])):
            raise ValueError(f"year {self.year}: selections must be strictly increasing")
        if len(self.records) > MAX_SELECTION:
            raise ValueError(f"year {self.year}: more than {MAX_SELECTION} selections")
        for r in self.records:
            if r.year != self.year:
                raise ValueError(f"record year {r.year} != class year {self.year}")

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def columns(self) -> DraftColumns:
        return DraftColumns.from_records(self.records)


@dataclass(frozen=True)
class SummaryStats:
    """Five-number descriptive summary of a pooled metric."""

    median: float
    mean: float
    p75: float
    max: float
    sd: float


def pooled_metric(classes: Iterable[DraftClass], metric: Metric) -> np.ndarray:
    """All post-imputation values of one metric across the supplied classes."""
    return np.concatenate([np.empty(0)] + [dc.columns.metrics[metric] for dc in classes])


def summarize_metric(classes: Sequence[DraftClass], metric: Metric) -> SummaryStats:
    """Descriptive summary of a pooled metric; sd uses the n-1 denominator and
    the 75th percentile interpolates linearly between order statistics."""
    values = pooled_metric(classes, metric)
    if values.size < 2:
        raise ValueError("need at least 2 records to summarize")
    return SummaryStats(
        median=float(np.median(values)),
        mean=float(np.mean(values)),
        p75=float(np.percentile(values, 75)),
        max=float(np.max(values)),
        sd=float(np.std(values, ddof=1)),
    )
