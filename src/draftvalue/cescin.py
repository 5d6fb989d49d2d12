"""Integrated central-scouting ordering.

The four category lists (NA/EU x skater/goalie) carry no cross-list
comparison, so each category rank is multiplied by a category factor
estimated from historical selection records; ranking the resulting values
gives one ordering over a whole draft class. Drafted-but-unlisted players
are appended past every listed player's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .core_model import CssCategory, DraftClass

FACTOR_CATEGORIES = (
    CssCategory.NA_SKATER,
    CssCategory.NA_GOALIE,
    CssCategory.EU_SKATER,
    CssCategory.EU_GOALIE,
)


@dataclass(frozen=True)
class CategoryFactors:
    """Positive multiplier per scouting category."""

    na_skater: float
    na_goalie: float
    eu_skater: float
    eu_goalie: float

    def __post_init__(self):
        for cat in FACTOR_CATEGORIES:
            if self.for_category(cat) <= 0:
                raise ValueError(f"factor for {cat.value} must be positive")

    def for_category(self, category: CssCategory) -> float:
        return getattr(self, category.value.lower())


@dataclass(frozen=True)
class CssOrdering:
    """Integrated scouting values and ranks for one draft class.

    Arrays are aligned with ``DraftClass.records``; ``css_ranks`` is a
    permutation of 1..N.
    """

    year: int
    cescin_values: tuple[float, ...]
    css_ranks: tuple[int, ...]


def estimate_category_factors(
    classes: Iterable[DraftClass],
    overrides: Optional[Mapping[str, float]] = None,
) -> CategoryFactors:
    """Fit one factor per category as the through-origin least-squares slope
    of actual selection on category rank over all listed drafted players.

    ``overrides`` maps lowercase category names to fixed factors that skip
    estimation for that category.
    """
    overrides = dict(overrides or {})
    pairs: dict[CssCategory, list[tuple[int, int]]] = {c: [] for c in FACTOR_CATEGORIES}
    for dc in classes:
        for r in dc.records:
            if r.css_category in pairs:
                pairs[r.css_category].append((r.css_category_rank, r.selection))
    factors = {}
    for cat in FACTOR_CATEGORIES:
        key = cat.value.lower()
        if key in overrides:
            factors[key] = float(overrides[key])
            continue
        obs = pairs[cat]
        if not obs:
            # category absent from the data; its factor is never applied
            factors[key] = 1.0
            continue
        if len(obs) < 2:
            raise ValueError(
                f"category {cat.value}: need >= 2 ranked drafted players, got {len(obs)}"
            )
        num = sum(rank * sel for rank, sel in obs)
        den = sum(rank * rank for rank, _ in obs)
        factors[key] = num / den
    return CategoryFactors(**factors)


def cescin_value(category_rank: int, factor: float) -> float:
    """Integrated scouting value of one listed player."""
    if category_rank < 1:
        raise ValueError("category_rank must be >= 1")
    if factor <= 0:
        raise ValueError("factor must be positive")
    return category_rank * factor


def css_ordering(dc: DraftClass, factors: CategoryFactors) -> CssOrdering:
    """Assign integrated values and an overall rank to every player in a class.

    Unlisted players get values above every listed player's, spaced by 1 in
    order of actual selection, so their relative order follows the draft.
    Ties in value break toward the earlier actual selection.
    """
    if len(dc) == 0:
        raise ValueError("empty draft class")
    values: list[Optional[float]] = []
    for r in dc.records:
        if r.css_category is CssCategory.UNRANKED:
            values.append(None)
        else:
            values.append(cescin_value(r.css_category_rank, factors.for_category(r.css_category)))
    base = max((v for v in values if v is not None), default=0.0)
    k = 0
    for i, v in enumerate(values):
        if v is None:
            k += 1
            values[i] = base + k
    order = sorted(range(len(values)), key=lambda i: (values[i], dc.records[i].selection))
    ranks = [0] * len(values)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return CssOrdering(
        year=dc.year,
        cescin_values=tuple(values),
        css_ranks=tuple(ranks),
    )
