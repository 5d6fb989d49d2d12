"""Synthetic draft-class generator.

Players carry a latent, strictly decreasing quality; the team and scouting
orderings are noisy observations of that quality with separately tunable
noise. Outcomes are monotone links of quality with noise, calibrated so the
never-played fraction matches the configured rate. The generator exists to
make pipeline properties testable, not to model hockey.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import (
    CssCategory,
    DraftClass,
    ImputationConfig,
    PlayerRecord,
    Position,
    normalize_record,
)

_FORWARD_POSITIONS = (Position.C, Position.L, Position.R, Position.F)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    years: int = 5
    first_year: int = 1998
    picks_per_year: int = 210
    teams: int = 30
    never_played_rate: float = 0.54
    css_noise: float = 30.0
    team_noise: float = 12.0
    # category mix; set goalie_rate and eu_rate to 0 for a single-list draft
    goalie_rate: float = 0.116
    defense_rate: float = 0.317
    eu_rate: float = 0.30
    # decreasing base quality exp(-decay * talent/n) and outcome noise scale
    quality_decay: float = 3.0
    outcome_noise: float = 0.35

    def __post_init__(self):
        if not (0.0 <= self.never_played_rate < 1.0):
            raise ValueError("never_played_rate must be in [0, 1)")
        for name in ("css_noise", "team_noise", "outcome_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("goalie_rate", "defense_rate", "eu_rate"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.goalie_rate + self.defense_rate > 1.0:
            raise ValueError("goalie_rate + defense_rate must not exceed 1")
        if self.years < 1 or self.picks_per_year < 2 or self.teams < 1:
            raise ValueError("years, picks_per_year and teams must be positive")


def _played_probabilities(n: int, rate: float) -> np.ndarray:
    """Logistic played-probability in talent order, with the midpoint chosen
    by bisection so the mean matches 1 - rate."""
    t = np.arange(1, n + 1, dtype=float)
    if rate == 0.0:
        return np.ones(n)
    s = n / 8.0

    def mean_p(t0):
        return float(np.mean(1.0 / (1.0 + np.exp((t - t0) / s))))

    lo, hi = -4.0 * n, 5.0 * n
    target = 1.0 - rate
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if mean_p(mid) < target:
            lo = mid
        else:
            hi = mid
    return 1.0 / (1.0 + np.exp((t - (lo + hi) / 2.0) / s))


def generate_synthetic_draft(
    config: SynthConfig, imputation: ImputationConfig = ImputationConfig()
) -> list[DraftClass]:
    """Deterministic synthetic drafts; identical config gives identical output.
    ``imputation`` fills the outcomes of players who never played."""
    rng = np.random.default_rng(config.seed)
    classes = []
    n = config.picks_per_year
    quality = np.exp(-config.quality_decay * np.arange(n) / n)
    played_p = _played_probabilities(n, config.never_played_rate)
    for y in range(config.years):
        year = config.first_year + y
        talent = np.arange(1, n + 1, dtype=float)

        team_score = talent + rng.normal(0.0, config.team_noise, n) if config.team_noise else talent
        css_score = talent + rng.normal(0.0, config.css_noise, n) if config.css_noise else talent
        # selection 1 goes to the player teams score best (lowest)
        selection_of = np.empty(n, dtype=int)
        selection_of[np.argsort(team_score, kind="stable")] = np.arange(1, n + 1)

        goalie = rng.random(n) < config.goalie_rate
        defense = ~goalie & (rng.random(n) < config.defense_rate / max(1e-12, 1.0 - config.goalie_rate))
        european = rng.random(n) < config.eu_rate
        positions = np.empty(n, dtype=object)
        positions[goalie] = Position.G
        positions[defense] = Position.D
        forward_idx = np.flatnonzero(~goalie & ~defense)
        for i in forward_idx:
            positions[i] = _FORWARD_POSITIONS[rng.integers(0, len(_FORWARD_POSITIONS))]

        categories = np.empty(n, dtype=object)
        for i in range(n):
            if goalie[i]:
                categories[i] = CssCategory.EU_GOALIE if european[i] else CssCategory.NA_GOALIE
            else:
                categories[i] = CssCategory.EU_SKATER if european[i] else CssCategory.NA_SKATER
        category_rank = np.empty(n, dtype=int)
        for cat in set(categories):
            members = np.flatnonzero(categories == cat)
            order = members[np.argsort(css_score[members], kind="stable")]
            category_rank[order] = np.arange(1, len(members) + 1)

        played = rng.random(n) < played_p
        gp_noise = (
            np.exp(rng.normal(0.0, config.outcome_noise, n) - config.outcome_noise**2 / 2.0)
            if config.outcome_noise
            else np.ones(n)
        )
        gp = np.where(played, np.maximum(1, np.rint(550.0 * quality * gp_noise).astype(int)), 0)
        minutes = np.clip(6.0 + 19.0 * quality + rng.normal(0.0, config.outcome_noise, n), 3.0, None)
        toi = gp * minutes
        gvt = -20.0 + 134.0 * quality + rng.normal(0.0, 20.0 * config.outcome_noise, n)

        records = []
        for i in range(n):
            sel = int(selection_of[i])
            raw = PlayerRecord(
                year=year,
                selection=sel,
                team=f"T{(sel - 1) % config.teams + 1:02d}",
                name=f"P{year}_{i + 1:03d}",
                position=positions[i],
                css_category=categories[i],
                css_category_rank=int(category_rank[i]),
                gp7=int(gp[i]),
                toi7=float(toi[i]) if gp[i] > 0 else 0.0,
                gvt7=float(gvt[i]) if gp[i] > 0 else None,
            )
            records.append(normalize_record(raw, imputation))
        records.sort(key=lambda r: r.selection)
        classes.append(DraftClass(year=year, records=tuple(records)))
    return classes
