"""In-memory spans around the calls into draftvalue's layers.

The package itself carries no instrumentation. ``Tracer.installed()``
replaces every module attribute bound to one of the functions in
``TRACED`` with a wrapper that records a span (name, start, end, parent
span, analysis id) and a work count, and restores the originals on exit.
The prefix of a span name is its layer.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional


def _one(args, result) -> int:
    return 1


def _rows_read(args, result) -> int:
    return sum(len(dc.records) for dc in result)


def _pool_scans(args, result) -> int:
    # each pick scans the players still available: n + (n-1) + ... + 1
    n = len(args[0].records)
    return n * (n + 1) // 2


def _loess_point_evals(args, result) -> int:
    return len(args[0]) * len(result.grid)


# (module, function, span name, work count of one call)
TRACED: tuple[tuple[str, str, str, Callable], ...] = (
    ("cli", "main", "cli", _one),
    ("io", "load_draft_csv", "io.load_draft_csv", _rows_read),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", _one),
    ("pipeline", "build_orderings", "cescin.build_orderings", _one),
    ("draft_audit", "audit", "draft_audit.audit", _one),
    ("draft_audit", "replay_flags", "draft_audit.replay_flags", _pool_scans),
    ("valuation", "expected_curve", "valuation.expected_curve", _one),
    ("pipeline", "css_curves", "valuation.css_curves", _one),
    ("pipeline", "surplus_for_metric", "valuation.surplus_for_metric", _one),
    ("valuation", "draft_value_chart", "valuation.draft_value_chart", _one),
    ("team_analysis", "team_gains", "team_analysis.team_gains", _one),
    ("team_analysis", "normality_check", "team_analysis.normality_check", _one),
    ("team_analysis", "outlier_teams", "team_analysis.outlier_teams", _one),
    ("team_analysis", "split_half_correlation", "team_analysis.split_half_correlation", _one),
    ("numerics", "loess_fit", "numerics.loess_fit", _loess_point_evals),
    ("numerics", "antitonic_fit", "numerics.antitonic_fit", _one),
    ("numerics", "shapiro_wilk", "numerics.shapiro_wilk", _one),
)

# pipeline stage of a span called directly by run_pipeline
STAGE_OF = {
    "cescin.build_orderings": "cescin",
    "draft_audit.audit": "audit",
    "valuation.expected_curve": "curves",
    "valuation.css_curves": "surplus",
    "valuation.surplus_for_metric": "surplus",
    "valuation.draft_value_chart": "chart",
    "team_analysis.team_gains": "teams",
    "team_analysis.normality_check": "teams",
    "team_analysis.outlier_teams": "teams",
    "team_analysis.split_half_correlation": "teams",
}
STAGES = ("cescin", "audit", "curves", "surplus", "chart", "teams")
LAYERS = ("cli", "io", "cescin", "draft_audit", "valuation", "numerics", "team_analysis", "pipeline")

TEAM_TESTS = frozenset(name for name, stage in STAGE_OF.items() if stage == "teams")
SURPLUS = frozenset({"valuation.css_curves", "valuation.surplus_for_metric"})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    analysis: int
    work: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; with ``memory`` it also records each pipeline stage's
    tracemalloc peak above the level the stage started from."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.analysis = 0
        self.memory = memory
        self.stage_peaks: dict[str, int] = {}
        self.peak = 0
        self._open: list[Span] = []

    @contextmanager
    def installed(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "draftvalue" or n.startswith("draftvalue.")
        ]
        replaced = []
        for module_name, func, name, work in TRACED:
            original = getattr(importlib.import_module(f"draftvalue.{module_name}"), func)
            wrapper = self._wrap(original, name, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str, work: Callable):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            # cli.main is named after its subcommand, the first argument
            span_name = f"cli.{args[0][0]}" if name == "cli" else name
            span = Span(
                id=len(tracer.spans),
                name=span_name,
                start=0.0,
                end=0.0,
                parent=None if parent is None else parent.id,
                analysis=tracer.analysis,
            )
            tracer.spans.append(span)
            tracer._open.append(span)
            stage = (
                STAGE_OF.get(span_name)
                if tracer.memory and parent is not None and parent.name == "pipeline.run_pipeline"
                else None
            )
            base = tracer._stage_enter() if stage else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if stage:
                    tracer._stage_exit(stage, base)
            span.work = work(args, result)
            return result

        return traced

    def _stage_enter(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, peak)
        tracemalloc.reset_peak()
        return current

    def _stage_exit(self, stage: str, base: int) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, peak)
        self.stage_peaks[stage] = max(self.stage_peaks.get(stage, 0), peak - base)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def analysis_metrics(spans: list[Span], scale: float = 1.0) -> dict[str, float]:
    """Per-layer times, self times and computed work counts of one analysis;
    ``scale`` turns span wall seconds into calibrated seconds."""
    by_id = {s.id: s for s in spans}
    seconds = {s.id: s.seconds * scale for s in spans}
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + seconds[s.id]

    def self_seconds(s: Span) -> float:
        return seconds[s.id] - child_seconds.get(s.id, 0.0)

    def inclusive(names) -> float:
        # nested calls within the same group are already inside their caller
        total = 0.0
        for s in spans:
            if s.name not in names:
                continue
            p = s.parent
            while p is not None and by_id[p].name not in names:
                p = by_id[p].parent
            if p is None:
                total += seconds[s.id]
        return total

    counts = work_counts(spans)
    load_s = inclusive({"io.load_draft_csv"})
    out = {
        "io.load_draft_csv_s": load_s,
        "io.rows_per_s": counts["io.rows_read"] / load_s if load_s else 0.0,
        "cescin.build_orderings_s": inclusive({"cescin.build_orderings"}),
        "draft_audit.audit_s": inclusive({"draft_audit.audit"}),
        "draft_audit.replay_flags_s": inclusive({"draft_audit.replay_flags"}),
        "valuation.expected_curve_s": inclusive({"valuation.expected_curve"}),
        "valuation.surplus_s": inclusive(SURPLUS),
        "valuation.draft_value_chart_s": inclusive({"valuation.draft_value_chart"}),
        "numerics.loess_fit_s": inclusive({"numerics.loess_fit"}),
        "numerics.antitonic_fit_s": inclusive({"numerics.antitonic_fit"}),
        "numerics.shapiro_wilk_s": inclusive({"numerics.shapiro_wilk"}),
        "team_analysis.team_tests_s": inclusive(TEAM_TESTS),
        "pipeline.write_s": sum(self_seconds(s) for s in spans if s.name == "pipeline.run_pipeline"),
    }
    for layer in LAYERS:
        if layer != "pipeline":  # the pipeline's self time is pipeline.write_s
            out[f"{layer}.self_s"] = sum(
                self_seconds(s) for s in spans if s.name.split(".")[0] == layer
            )
    out["trace.stage_sum_s"] = sum(seconds[s.id] for s in spans if s.parent is None)
    for s in spans:
        if s.parent is None:
            key = f"{s.name}_s"  # cli.<subcommand>_s
            out[key] = out.get(key, 0.0) + seconds[s.id]
    out.update(counts)
    return out


def work_counts(spans: list[Span]) -> dict[str, int]:
    """Work counts derived from the inputs of each call, not from timings."""

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def work(name: str) -> int:
        return sum(s.work for s in spans if s.name == name)

    return {
        "io.rows_read": work("io.load_draft_csv"),
        "draft_audit.replays": calls("draft_audit.replay_flags"),
        "draft_audit.pool_scans": work("draft_audit.replay_flags"),
        "numerics.loess_fits": calls("numerics.loess_fit"),
        "numerics.loess_point_evals": work("numerics.loess_fit"),
        "cli.subcommand_calls": sum(1 for s in spans if s.parent is None),
    }


def median_metrics(per_analysis: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for m in per_analysis for k in m})
    return {k: statistics.median(m.get(k, 0.0) for m in per_analysis) for k in keys}
