"""End-to-end orchestration: scouting ordering, audit, expectation curves,
surplus estimation, dollar conversion, value chart and team analysis.

:class:`Analysis` computes each stage on first use, together with the
stages and expected curves it reads, each curve fitted once;
:func:`run_pipeline` writes the artifacts of the stages it is given, so a
partial run computes only what it writes.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from functools import cached_property, partial, wraps
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .cescin import CategoryFactors, css_ordering, estimate_category_factors
from .config import RunConfig
from .core_model import Draft, Metric, PositionGroup
from .draft_audit import AuditReport, Ordering, audit
from .io import csv_text, write_csv
from .numerics import SmoothCurve
from .team_analysis import TeamGains, normality_check, outlier_teams, split_half_correlation, team_gains
from .valuation import (
    GainEstimate,
    ValueChart,
    differential_points,
    draft_value_chart,
    expected_curve,
    fit_differential_curve,
    gain_estimate,
    group_rows,
)

logger = logging.getLogger("draftvalue")


class PipelineError(RuntimeError):
    """Failure in a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def build_orderings(draft: Draft, config: RunConfig) -> tuple[CategoryFactors, np.ndarray]:
    """The category factors and the ``css_ordering`` of every class, as one
    read-only rank array."""
    factors = estimate_category_factors(draft, overrides=config.factors)
    return factors, css_ordering(draft, factors)


def css_curves(draft: Draft, css_order: np.ndarray, config: RunConfig) -> dict[Metric, SmoothCurve]:
    return expected_curve(draft, css_order, config.metrics, config.loess_span)


def surplus_for_metric(
    draft: Draft,
    css_order: np.ndarray,
    curves: Mapping[Metric, SmoothCurve],
    config: RunConfig,
    group: Optional[PositionGroup] = None,
) -> dict[Metric, tuple[Optional[SmoothCurve], GainEstimate]]:
    """The fitted surplus curve and the gain estimate of each metric of
    ``curves``, the scouting-order expected curves of ``group``.

    When the team and scouting orderings coincide (all rank differentials
    zero) no curve can be fitted and every gain is exactly zero.
    """
    delta_rank, surplus = differential_points(draft, css_order, curves, group_rows(draft, group))
    if not delta_rank.any():
        return {m: (None, GainEstimate(metric=m, per_pick=0.0, per_draft=0.0, dollars=0.0)) for m in curves}
    fit = fit_differential_curve(delta_rank, surplus.values(), config.loess_span)
    return {
        m: (curve, gain_estimate(curve, delta_rank, m, config.dollars))
        for m, curve in zip(curves, fit.split())
    }


def _fails_as(stage: str, compute):
    """``compute`` with any failure reported as a ``PipelineError`` of
    ``stage``; a ``PipelineError`` from a stage it reads passes through, so
    the error names the stage that failed, not the one that asked. A float
    overflow or invalid operation raises, not warns."""

    @wraps(compute)
    def wrapper(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return compute(*args, **kwargs)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(stage, exc) from exc

    return wrapper


def _stage(compute):
    return cached_property(_fails_as(compute.__name__, compute))


class Analysis:
    """The six stage results of one run over ``draft``."""

    def __init__(self, draft: Draft, config: RunConfig):
        self.draft = draft
        self.config = config
        self._curves: dict[tuple, SmoothCurve] = {}

    @_stage
    def cescin(self) -> tuple[CategoryFactors, np.ndarray]:
        return build_orderings(self.draft, self.config)

    def ranks(self, ordering: Ordering) -> np.ndarray:
        """The read-only pooled rank array under ``ordering``: the actual
        selections for the team order, the integrated scouting ranks for CSS."""
        if ordering is Ordering.TEAM:
            return self.draft.columns.selection
        return self.cescin[1]

    @partial(_fails_as, "curves")
    def expected(
        self, ordering: Ordering, metrics: Sequence[Metric], group=None
    ) -> dict[Metric, SmoothCurve]:
        """Expected-performance curves of ``metrics`` for ``group`` (None:
        all). Each is fitted once; the missing ones in one stacked call."""
        missing = [m for m in metrics if (ordering, m, group) not in self._curves]
        if missing:
            span = self.config.loess_span
            fitted = expected_curve(self.draft, self.ranks(ordering), missing, span, group)
            self._curves.update(((ordering, m, group), c) for m, c in fitted.items())
        return {m: self._curves[ordering, m, group] for m in metrics}

    @_stage
    def audit(self) -> AuditReport:
        return audit(self.draft, {o: self.ranks(o) for o in Ordering}, self.config.metrics)

    @_stage
    def curves(self) -> dict[Ordering, dict[Metric, SmoothCurve]]:
        """Expected-performance curve per ordering and metric."""
        return {o: self.expected(o, self.config.metrics) for o in Ordering}

    @_stage
    def surplus(self) -> dict[str, tuple[Optional[SmoothCurve], GainEstimate]]:
        """Differential curve (None when no rank differs) and gain per metric,
        keyed ``<metric>`` and, when stratified, ``<metric>_<group>``."""
        cfg = self.config
        out = {}
        for group in [None, *PositionGroup] if cfg.by_position else [None]:
            expected = self.expected(Ordering.CSS, cfg.metrics, group)
            fits = surplus_for_metric(self.draft, self.ranks(Ordering.CSS), expected, cfg, group)
            for metric, fit in fits.items():
                key = metric.value if group is None else f"{metric.value}_{group.value.lower()}"
                out[key] = fit
        return out

    @_stage
    def chart(self) -> ValueChart:
        return draft_value_chart(self.expected(Ordering.TEAM, [Metric.TOI])[Metric.TOI])

    @_stage
    def teams(self) -> tuple[TeamGains, dict]:
        """Per-team mean gains and the tests over them."""
        cfg = self.config
        expected = self.expected(Ordering.CSS, cfg.metrics)
        # per-pick surpluses, each row built when the one grouped pass of the gains reads it
        surplus = differential_points(self.draft, self.ranks(Ordering.CSS), expected)[1]
        gains = team_gains(self.draft, surplus, cfg.split_early, cfg.split_late)
        tests: dict = {"normality": {}, "split_half": {}, "outliers": {}}
        for metric in cfg.metrics:
            try:
                res = normality_check(gains, metric)
                tests["normality"][metric.value] = {"W": res.statistic, "p": res.p_value}
            except ValueError as exc:
                tests["normality"][metric.value] = {"error": str(exc)}
            tests["outliers"][metric.value] = outlier_teams(gains, metric)
        if gains.picks[1].any() and gains.picks[2].any():  # the data years cover both halves
            try:
                split = split_half_correlation(gains)
                tests["split_half"] = {m.value: {"r": r.statistic, "p": r.p_value} for m, r in split.items()}
            except ValueError as exc:
                tests["split_half"] = {"error": str(exc)}
        else:
            logger.info("split-half skipped: data years do not cover both halves")
        return gains, tests


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, allow_nan=False))  # strict JSON: NaN or inf raise
    return path


def _write_curve(path: Path, curve: SmoothCurve) -> Path:
    return write_csv(path, ("x", "fitted"), "%g,%.6f\r\n", zip(curve.grid.tolist(), curve.values.tolist()))


def _write_cescin(a: Analysis, out: Path) -> list[Path]:
    cescin = {"factors": dataclasses.asdict(a.cescin[0]), "years": list(a.draft.years)}
    return [_write_json(out / "cescin.json", cescin)]


def _write_audit(a: Analysis, out: Path) -> list[Path]:
    rows = a.audit.rows()
    half_sd = {m.value: v for m, v in a.audit.half_sd.items()}
    return [
        _write_json(out / "audit.json", {"half_sd": half_sd, "cells": rows}),
        write_csv(out / "audit.csv", rows[0], "%s,%s,%s,%d,%r,%r\r\n", (tuple(r.values()) for r in rows)),
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
    return [write_csv(out / "chart.csv", ("selection", "value"), "%d,%d\r\n", a.chart.rows())]


def _write_teams(a: Analysis, out: Path) -> list[Path]:
    gains, tests = a.teams
    metrics = a.config.metrics
    header = ["team", "picks"] + [f"mean_gain_{m.value}" for m in metrics]
    line = "%s,%d" + ",%.4f" * len(metrics) + "\r\n"
    teams = (csv_text(team.decode()) for team in gains.teams.tolist())
    rows = zip(teams, gains.picks[0].tolist(), *(gains.means[m][0].tolist() for m in metrics))
    return [write_csv(out / "teams.csv", header, line, rows), _write_json(out / "team_tests.json", tests)]


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
    draft: Draft,
    config: RunConfig,
    out_dir: Union[str, Path],
    stages: Sequence[str] = STAGES,
) -> list[Path]:
    """Compute ``stages`` and the stages they read, then write their
    artifacts, each file's directory made as the file is written; a failed
    stage writes nothing and makes no directory. Returns the paths written."""
    analysis = Analysis(draft, config)
    for stage in stages:
        getattr(analysis, stage)
    return [path for stage in stages for path in _WRITERS[stage](analysis, Path(out_dir))]
