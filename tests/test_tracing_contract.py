"""The benchmark tracer's view of the package: every function it wraps still
exists under its name, and one paper-scale run does the work pinned here
(rows read, audit replays, LOESS fits and their point evaluations). The
three metrics of one rank family share one stacked LOESS fit, and the
tracer counts len(x) x len(grid) evaluations per call. The tracer counts
replays and pool scans per ``replay_flags`` call, which ``audit`` no
longer makes: it replays runs of whole classes in one pass per (metric,
ordering) each, so a run reads 0 of both (``test_pipeline`` pins the
passes)."""

import importlib
import importlib.util
import sys
from pathlib import Path

import draftvalue.cli  # the tracer wraps only modules loaded when it is installed
from draftvalue.io import load_draft_csv, write_draft_csv
from draftvalue.synth import SynthConfig, generate_synthetic_draft

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_name_resolves():
    for module_name, func, _, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"draftvalue.{module_name}"), func))


def test_paper_scale_run_work_counts(tmp_path, capsys):
    data = tmp_path / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=5)), data)
    with tracing.Tracer().installed() as tracer:
        assert draftvalue.cli.main(["run", str(data), "--out", str(tmp_path / "o")]) == 0
    assert tracing.work_counts(tracer.spans) == {
        "io.rows_read": 1050,
        "draft_audit.replays": 0,
        "draft_audit.pool_scans": 0,
        "numerics.loess_fits": 3,
        "numerics.loess_point_evals": 679_350,
        "cli.subcommand_calls": 1,
    }


def test_the_tracer_counts_rows_and_pool_scans_of_a_draft(tmp_path):
    # what the tracer reads of its wrapped calls' arguments and results:
    # the rows of a loaded draft, and the scans of a one-class replay
    data = tmp_path / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=5)), data)
    draft = load_draft_csv(data)
    assert tracing._rows_read((), draft) == 1050
    n = draft.bounds[1]
    assert tracing._pool_scans((draft[0],), None) == n * (n + 1) // 2
