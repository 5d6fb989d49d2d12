"""Synthetic draft-class generator.

Players carry a latent, strictly decreasing quality; the team and scouting
orderings are noisy observations of that quality with separately tunable
noise. Outcomes are monotone links of quality with noise, calibrated so the
never-played fraction matches ``NEVER_PLAYED_RATE``. The generator exists to
make pipeline properties testable, not to model hockey.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import (
    CATEGORIES,
    GOALIE,
    MAX_SELECTION,
    POSITIONS,
    CssCategory,
    Draft,
    ImputationConfig,
    Position,
    RawRows,
    draft_classes,
)

_FORWARD_CODES = np.array([POSITIONS.index(p) for p in (Position.C, Position.L, Position.R, Position.F)])
_CODE = {c: CATEGORIES.index(c) for c in CssCategory}
FIRST_YEAR = 1998
QUALITY_DECAY = 3.0  # base quality exp(-QUALITY_DECAY * talent/n) falls down the draft
OUTCOME_NOISE = 0.35  # scale of the noise on each outcome
NEVER_PLAYED_RATE = 0.54  # expected share of picks who never play
DEFENSE_RATE = 0.317  # expected share of defensemen


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    years: int = 5
    picks_per_year: int = MAX_SELECTION
    teams: int = 30
    css_noise: float = 30.0
    team_noise: float = 12.0
    # category mix; set goalie_rate and eu_rate to 0 for a single-list draft
    goalie_rate: float = 0.116
    eu_rate: float = 0.30

    def __post_init__(self):
        for name in ("css_noise", "team_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("goalie_rate", "eu_rate"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.goalie_rate + DEFENSE_RATE > 1.0:
            raise ValueError(f"goalie_rate + DEFENSE_RATE ({DEFENSE_RATE}) must not exceed 1")
        for name, low in (("seed", 0), ("years", 1), ("teams", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 2 <= self.picks_per_year <= MAX_SELECTION:
            raise ValueError(f"picks_per_year must be in [2, {MAX_SELECTION}], got {self.picks_per_year}")


def _played_probabilities(n: int) -> np.ndarray:
    """Logistic played-probability in talent order, with the midpoint chosen
    by bisection so the mean matches 1 - ``NEVER_PLAYED_RATE``."""
    t = np.arange(1, n + 1, dtype=float)
    s = n / 8.0

    def mean_p(t0):
        return float(np.mean(1.0 / (1.0 + np.exp((t - t0) / s))))

    lo, hi = -4.0 * n, 5.0 * n
    target = 1.0 - NEVER_PLAYED_RATE
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if mean_p(mid) < target:
            lo = mid
        else:
            hi = mid
    return 1.0 / (1.0 + np.exp((t - (lo + hi) / 2.0) / s))


def generate_synthetic_draft(
    config: SynthConfig, imputation: ImputationConfig = ImputationConfig()
) -> Draft:
    """Deterministic synthetic drafts; identical config gives identical output.
    ``imputation`` fills the outcomes of players who never played."""
    rng = np.random.default_rng(config.seed)
    parts = []  # the rows of each year in pick order, as RawRows fields
    n = config.picks_per_year
    quality = np.exp(-QUALITY_DECAY * np.arange(n) / n)
    played_p = _played_probabilities(n)
    talent = np.arange(1, n + 1, dtype=float)
    selection = np.arange(1, n + 1)
    team = np.array([b"T%02d" % (i % config.teams + 1) for i in range(n)])  # the same every year
    for y in range(config.years):
        year = FIRST_YEAR + y
        team_score = talent + rng.normal(0.0, config.team_noise, n) if config.team_noise else talent
        css_score = talent + rng.normal(0.0, config.css_noise, n) if config.css_noise else talent
        by_pick = np.argsort(team_score, kind="stable")  # selection 1 goes to the player teams score best (lowest)

        goalie = rng.random(n) < config.goalie_rate
        defense = ~goalie & (rng.random(n) < DEFENSE_RATE / (1.0 - config.goalie_rate))
        european = rng.random(n) < config.eu_rate
        position = np.empty(n, dtype=np.int8)
        position[goalie] = GOALIE
        position[defense] = POSITIONS.index(Position.D)
        forward = ~goalie & ~defense
        position[forward] = _FORWARD_CODES[rng.integers(0, len(_FORWARD_CODES), forward.sum())]

        category = np.where(
            goalie,
            np.where(european, _CODE[CssCategory.EU_GOALIE], _CODE[CssCategory.NA_GOALIE]),
            np.where(european, _CODE[CssCategory.EU_SKATER], _CODE[CssCategory.NA_SKATER]),
        ).astype(np.int8)
        category_rank = np.empty(n, dtype=np.int64)
        for code in np.flatnonzero(np.bincount(category)):
            members = np.flatnonzero(category == code)
            order = members[np.argsort(css_score[members], kind="stable")]
            category_rank[order] = np.arange(1, len(members) + 1)

        played = rng.random(n) < played_p
        gp_noise = np.exp(rng.normal(0.0, OUTCOME_NOISE, n) - OUTCOME_NOISE**2 / 2.0)
        gp = np.where(played, np.maximum(1, np.rint(550.0 * quality * gp_noise).astype(int)), 0)
        minutes = np.clip(6.0 + 19.0 * quality + rng.normal(0.0, OUTCOME_NOISE, n), 3.0, None)
        toi = gp * minutes
        gvt = -20.0 + 134.0 * quality + rng.normal(0.0, 20.0 * OUTCOME_NOISE, n)

        parts.append(dict(
            year=np.full(n, year),
            selection=selection,
            team=team,
            name=np.array([b"P%d_%03d" % (year, i + 1) for i in by_pick.tolist()]),
            position=position[by_pick],
            css_category=category[by_pick],
            css_category_rank=category_rank[by_pick],
            gp7=gp[by_pick],
            toi7=toi[by_pick],
            gvt7=gvt[by_pick],
            has_gvt7=gp[by_pick] > 0,
        ))
    cols = {field: np.concatenate([part[field] for part in parts]) for field in parts[0]}
    given = np.ones(len(cols["year"]), dtype=bool)
    return draft_classes(RawRows(**cols, has_css_category_rank=given, has_toi7=given), imputation)
