"""End-to-end orchestration: scouting ordering, audit, expectation curves,
surplus estimation, dollar conversion, value chart and team analysis.

:class:`Analysis` computes each stage on first use, together with the
stages and expected curves it reads, each curve fitted once;
:func:`run_pipeline` writes the artifacts of the stages it is given, so a
partial run computes only what it writes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from functools import cached_property, partial, wraps
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .cescin import CategoryFactors, estimate_category_factors, css_ordering
from .config import RunConfig
from .core_model import DraftClass, Metric, PositionGroup
from .draft_audit import AuditReport, Ordering, audit
from .numerics import SmoothCurve
from .team_analysis import (
    TeamGain,
    normality_check,
    outlier_teams,
    split_half_correlation,
    team_gains,
)
from .valuation import (
    GainEstimate,
    ValueChart,
    differential_points,
    draft_value_chart,
    expected_curve,
    fit_differential_curve,
    gain_estimate,
)

logger = logging.getLogger("draftvalue")


class PipelineError(RuntimeError):
    """Failure in a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def build_orderings(
    classes: Sequence[DraftClass], config: RunConfig
) -> tuple[CategoryFactors, dict[int, np.ndarray]]:
    """The category factors and each year's integrated scouting ranks."""
    factors = estimate_category_factors(classes, overrides=config.factors)
    return factors, {dc.year: css_ordering(dc, factors) for dc in classes}


def css_curves(
    classes: Sequence[DraftClass],
    css_ranks: Mapping[int, np.ndarray],
    config: RunConfig,
) -> dict[Metric, SmoothCurve]:
    return {m: expected_curve(classes, css_ranks, m, config.loess_span) for m in config.metrics}


def surplus_for_metric(
    classes: Sequence[DraftClass],
    css_ranks: Mapping[int, np.ndarray],
    curve: SmoothCurve,
    metric: Metric,
    config: RunConfig,
    group: Optional[PositionGroup] = None,
) -> tuple[Optional[SmoothCurve], GainEstimate]:
    """The fitted surplus curve and the gain estimate.

    When the team and scouting orderings coincide (all rank differentials
    zero) no curve can be fitted and the gain is exactly zero.
    """
    delta_rank, delta_metric = differential_points(classes, css_ranks, curve, metric, group)
    if not delta_rank.any():
        return None, GainEstimate(metric=metric, per_pick=0.0, per_draft=0.0, dollars=0.0)
    diff_curve = fit_differential_curve(delta_rank, delta_metric, config.loess_span)
    return diff_curve, gain_estimate(diff_curve, delta_rank, metric, config.dollars)


def _fails_as(stage: str, compute):
    """``compute`` with any failure reported as a ``PipelineError`` of
    ``stage``; a ``PipelineError`` from a stage it reads passes through, so
    the error names the stage that failed, not the one that asked."""

    @wraps(compute)
    def wrapper(*args, **kwargs):
        try:
            return compute(*args, **kwargs)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(stage, exc) from exc

    return wrapper


def _stage(compute):
    return cached_property(_fails_as(compute.__name__, compute))


class Analysis:
    """The six stage results of one run over ``classes``."""

    def __init__(self, classes: Sequence[DraftClass], config: RunConfig):
        if not classes:
            raise PipelineError("ingest", ValueError("no draft classes supplied"))
        self.classes = classes
        self.config = config
        self._curves: dict[tuple, SmoothCurve] = {}

    @_stage
    def cescin(self) -> tuple[CategoryFactors, dict[int, np.ndarray]]:
        return build_orderings(self.classes, self.config)

    def ranks(self, ordering: Ordering) -> dict[int, np.ndarray]:
        """Each year's rank array under ``ordering``: the actual selections
        for the team order, the integrated scouting ranks for CSS."""
        if ordering is Ordering.TEAM:
            return {dc.year: dc.columns.selection for dc in self.classes}
        return self.cescin[1]

    @partial(_fails_as, "curves")
    def curve(self, ordering: Ordering, metric: Metric, group=None) -> SmoothCurve:
        """Expected-performance curve of ``group`` (None: all), fitted once."""
        key = (ordering, metric, group)
        if key not in self._curves:
            ranks, span = self.ranks(ordering), self.config.loess_span
            self._curves[key] = expected_curve(self.classes, ranks, metric, span, group)
        return self._curves[key]

    @_stage
    def audit(self) -> AuditReport:
        return audit(self.classes, {o: self.ranks(o) for o in Ordering}, self.config.metrics)

    @_stage
    def curves(self) -> dict[Ordering, dict[Metric, SmoothCurve]]:
        """Expected-performance curve per ordering and metric."""
        return {o: {m: self.curve(o, m) for m in self.config.metrics} for o in Ordering}

    @_stage
    def surplus(self) -> dict[str, tuple[Optional[SmoothCurve], GainEstimate]]:
        """Differential curve (None when no rank differs) and gain per metric,
        keyed ``<metric>`` and, when stratified, ``<metric>_<group>``."""
        cfg = self.config
        out = {}
        for group in [None, *PositionGroup] if cfg.by_position else [None]:
            for metric in cfg.metrics:
                key = metric.value if group is None else f"{metric.value}_{group.value.lower()}"
                expected = self.curve(Ordering.CSS, metric, group)
                out[key] = surplus_for_metric(
                    self.classes, self.ranks(Ordering.CSS), expected, metric, cfg, group
                )
        return out

    @_stage
    def chart(self) -> ValueChart:
        return draft_value_chart(self.curve(Ordering.TEAM, Metric.TOI))

    @_stage
    def teams(self) -> tuple[list[TeamGain], dict]:
        """Per-team mean gains and the tests over them."""
        cfg = self.config
        expected = {m: self.curve(Ordering.CSS, m) for m in cfg.metrics}
        css_ranks = self.ranks(Ordering.CSS)
        gains = team_gains(self.classes, css_ranks, expected)
        tests: dict = {"normality": {}, "split_half": {}, "outliers": {}}
        for metric in cfg.metrics:
            try:
                res = normality_check(gains, metric)
                tests["normality"][metric.value] = {"W": res.statistic, "p": res.p_value}
            except ValueError as exc:
                tests["normality"][metric.value] = {"error": str(exc)}
            tests["outliers"][metric.value] = outlier_teams(gains, metric)
        years = [dc.year for dc in self.classes]
        if any(y in cfg.split_early for y in years) and any(y in cfg.split_late for y in years):
            try:
                split = split_half_correlation(
                    self.classes, css_ranks, expected, cfg.split_early, cfg.split_late
                )
                tests["split_half"] = {
                    m.value: {"r": res.statistic, "p": res.p_value} for m, res in split.items()
                }
            except ValueError as exc:
                tests["split_half"] = {"error": str(exc)}
        else:
            logger.info("split-half skipped: data years do not cover both halves")
        return gains, tests


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2))
    return path


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_curve(path: Path, curve: SmoothCurve) -> Path:
    path.parent.mkdir(exist_ok=True)
    rows = ([f"{x:g}", f"{v:.6f}"] for x, v in zip(curve.grid, curve.values))
    return _write_csv(path, ["x", "fitted"], rows)


def _write_cescin(a: Analysis, out: Path) -> list[Path]:
    factors, orderings = a.cescin
    cescin = {"factors": dataclasses.asdict(factors), "years": sorted(orderings)}
    return [_write_json(out / "cescin.json", cescin)]


def _write_audit(a: Analysis, out: Path) -> list[Path]:
    rows = a.audit.rows()
    half_sd = {m.value: v for m, v in a.audit.half_sd.items()}
    return [
        _write_json(out / "audit.json", {"half_sd": half_sd, "cells": rows}),
        _write_csv(out / "audit.csv", list(rows[0]), (r.values() for r in rows)),
    ]


def _write_curves(a: Analysis, out: Path) -> list[Path]:
    return [
        _write_curve(out / "curves" / f"expected_{m.value}_{o.value}.csv", curve)
        for o, by_metric in a.curves.items()
        for m, curve in by_metric.items()
    ]


def _write_surplus(a: Analysis, out: Path) -> list[Path]:
    paths = [
        _write_curve(out / "curves" / f"differential_{key}.csv", curve)
        for key, (curve, _) in a.surplus.items()
        if curve is not None
    ]
    gains = {
        key: {**dataclasses.asdict(est), "metric": est.metric.value}
        for key, (_, est) in a.surplus.items()
    }
    return paths + [_write_json(out / "gains.json", gains)]


def _write_chart(a: Analysis, out: Path) -> list[Path]:
    return [_write_csv(out / "chart.csv", ["selection", "value"], a.chart.rows())]


def _write_teams(a: Analysis, out: Path) -> list[Path]:
    gains, tests = a.teams
    metrics = a.config.metrics
    header = ["team", "picks"] + [f"mean_gain_{m.value}" for m in metrics]
    rows = ([g.team, g.picks] + [f"{g.mean_gain[m]:.4f}" for m in metrics] for g in gains)
    return [
        _write_csv(out / "teams.csv", header, rows),
        _write_json(out / "team_tests.json", tests),
    ]


_WRITERS = {
    "cescin": _write_cescin,
    "audit": _write_audit,
    "curves": _write_curves,
    "surplus": _write_surplus,
    "chart": _write_chart,
    "teams": _write_teams,
}
STAGES = tuple(_WRITERS)


def run_pipeline(
    classes: Sequence[DraftClass],
    config: RunConfig,
    out_dir: Union[str, Path],
    stages: Sequence[str] = STAGES,
) -> list[Path]:
    """Write the artifacts of ``stages``, computing them and the stages they
    read; returns the paths written."""
    analysis = Analysis(classes, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [path for stage in stages for path in _WRITERS[stage](analysis, out)]
