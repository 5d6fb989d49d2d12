"""Integrated central-scouting ordering.

The four category lists (NA/EU x skater/goalie) carry no cross-list
comparison, so each category rank is multiplied by a category factor
estimated from historical selection records; ranking the resulting values
gives one ordering over a whole draft class. Drafted-but-unlisted players
are ranked after every listed player.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .core_model import CATEGORIES, UNRANKED, CssCategory, Draft

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


def estimate_category_factors(
    draft: Draft,
    overrides: Optional[Mapping[str, float]] = None,
) -> CategoryFactors:
    """Fit one factor per category as the through-origin least-squares slope
    of actual selection on category rank over all listed drafted players.

    ``overrides`` maps lowercase category names to fixed factors that skip
    estimation for that category.
    """
    overrides = dict(overrides or {})
    c = draft.columns
    factors = {}
    for cat in FACTOR_CATEGORIES:
        key = cat.value.lower()
        if key in overrides:
            factors[key] = float(overrides[key])
            continue
        listed = c.category == CATEGORIES.index(cat)
        n = np.count_nonzero(listed)
        if n == 0:
            # category absent from the data; its factor is never applied
            factors[key] = 1.0
            continue
        if n < 2:
            raise ValueError(f"category {cat.value}: need >= 2 ranked drafted players, got {n}")
        # in float64, exact below 2**53: an int16 or int64 dot product wraps silently past its range
        r, s = c.category_rank[listed].astype(float), c.selection[listed]
        factors[key] = float(r @ s / (r @ r))
    return CategoryFactors(**factors)


def css_ordering(draft: Draft, factors: CategoryFactors) -> np.ndarray:
    """Integrated scouting rank of every row of ``draft``, filled class by
    class into one read-only int16 array: in each class a permutation of 1..N.

    Listed players come first, ranked by value: a listed player's value is
    his category rank times the category factor. Unlisted players follow in
    order of actual selection, so their relative order follows the draft.
    Ties in value break by row order, which is selection order.
    """
    c, bounds = draft.columns, draft.bounds
    factor = np.array([factors.for_category(k) if k in FACTOR_CATEGORIES else 0.0 for k in CATEGORIES])
    ranks = np.empty(len(c.selection), dtype=np.int16)  # a class has at most MAX_SELECTION rows
    for lo, hi in zip(bounds, bounds[1:]):
        category = c.category[lo:hi]
        values = c.category_rank[lo:hi] * factor[category]  # 0 for the unlisted
        ranks[lo:hi][np.lexsort((values, category == UNRANKED))] = np.arange(1, hi - lo + 1)
    ranks.flags.writeable = False
    return ranks
