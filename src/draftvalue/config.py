"""Run configuration and its flat key/value file format.

Config files hold one ``section.key = value`` pair per line; ``#`` starts a
comment. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
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
        early, late = self.split_early, self.split_late
        # a year list tests its own items; two ranges only the span their bounds share
        years = late if isinstance(early, range) else early
        if isinstance(years, range):
            years = range(max(early[0], late[0]), min(early[-1], late[-1]) + 1)
        shared = next((y for y in years if y in early and y in late), None)
        if shared is not None:
            raise ValueError(f"split.early and split.late must not share a year, both name {shared}")
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
    nested = {"dollars": cfg.dollars, "impute": cfg.imputation}  # a key sets one field of these
    factors = dict(cfg.factors)
    updates: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        section, _, name = key.partition(".")
        if key == "loess.span":
            updates["loess_span"] = float(value)
        elif key in {f"cescin.{c.value.lower()}" for c in FACTOR_CATEGORIES}:
            factors[key[7:]] = float(value)
        elif section in nested and name in {f.name for f in fields(nested[section])}:
            old = nested[section]  # the value parses as the type of the field's default
            nested[section] = replace(old, **{name: type(getattr(old, name))(value)})
        elif key == "split.early":
            updates["split_early"] = _year_range(value)
        elif key == "split.late":
            updates["split_late"] = _year_range(value)
        elif key == "metrics":
            updates["metrics"] = tuple(Metric(v.strip().lower()) for v in value.split(",") if v.strip())
        elif key == "by_position":
            if value.lower() not in _BOOLEANS:
                raise ValueError(f"config line {lineno}: by_position must be true or false")
            updates["by_position"] = _BOOLEANS[value.lower()]
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return replace(cfg, dollars=nested["dollars"], imputation=nested["impute"], factors=factors, **updates)


def load_config(path: Union[str, Path]) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
