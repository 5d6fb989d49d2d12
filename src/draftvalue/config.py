"""Run configuration and its flat key/value file format.

Config files hold one ``section.key = value`` pair per line; ``#`` starts a
comment. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence, Union

from .cescin import FACTOR_CATEGORIES
from .core_model import ImputationConfig, Metric
from .valuation import DollarConstants


def _year_range(text: str) -> Sequence[int]:
    """``lo-hi`` as a ``range`` (no year list, however wide), or a comma list."""
    text = text.strip()
    if "-" in text:
        lo, hi = text.split("-", 1)
        return range(int(lo), int(hi) + 1)
    return tuple(int(p) for p in text.split(",") if p.strip())


@dataclass(frozen=True)
class RunConfig:
    loess_span: float = 0.5
    factors: dict[str, float] = field(default_factory=dict)  # cescin overrides
    dollars: DollarConstants = DollarConstants()
    imputation: ImputationConfig = ImputationConfig()
    split_early: Sequence[int] = range(1998, 2001)  # what the README's "1998-2000" parses to
    split_late: Sequence[int] = (2001, 2002)
    metrics: tuple[Metric, ...] = tuple(Metric)
    by_position: bool = False

    def __post_init__(self):
        if not 0.0 < self.loess_span <= 1.0:
            raise ValueError(f"loess span must be in (0, 1], got {self.loess_span}")
        if not (self.split_early and self.split_late):
            raise ValueError("split.early and split.late must each name at least one year")
        if not self.metrics:
            raise ValueError("metrics must name at least one metric")
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError("metrics must not repeat a metric")
        if not all(0 < f < math.inf for f in self.factors.values()):
            raise ValueError("cescin factors must be positive and finite")
        unknown = set(self.factors) - {c.value.lower() for c in FACTOR_CATEGORIES}
        if unknown:
            raise ValueError(f"unknown cescin factor(s) {sorted(unknown)}")

_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    dollars = cfg.dollars
    imputation = cfg.imputation
    factors = dict(cfg.factors)
    updates: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "loess.span":
            updates["loess_span"] = float(value)
        elif key in {f"cescin.{c.value.lower()}" for c in FACTOR_CATEGORIES}:
            factors[key[7:]] = float(value)
        elif key == "dollars.salary_per_game":
            dollars = replace(dollars, salary_per_game=float(value))
        elif key == "dollars.dollars_per_goal":
            dollars = replace(dollars, dollars_per_goal=float(value))
        elif key == "dollars.minutes_per_game":
            dollars = replace(dollars, minutes_per_game=float(value))
        elif key == "dollars.picks_per_season":
            dollars = replace(dollars, picks_per_season=int(value))
        elif key == "impute.never_played_gvt":
            imputation = replace(imputation, never_played_gvt=float(value))
        elif key == "impute.goalie_minutes_per_game":
            imputation = replace(imputation, goalie_minutes_per_game=float(value))
        elif key == "split.early":
            updates["split_early"] = _year_range(value)
        elif key == "split.late":
            updates["split_late"] = _year_range(value)
        elif key == "metrics":
            updates["metrics"] = tuple(
                Metric(v.strip().lower()) for v in value.split(",") if v.strip()
            )
        elif key == "by_position":
            if value.lower() not in _BOOLEANS:
                raise ValueError(f"config line {lineno}: by_position must be true or false")
            updates["by_position"] = _BOOLEANS[value.lower()]
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return replace(cfg, dollars=dollars, imputation=imputation, factors=factors, **updates)


def load_config(path: Union[str, Path]) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
