"""Stage graph of the pipeline: each subcommand computes only the stages its
artifacts read, a failure names the stage that failed, and every subcommand
reproduces the stored reference artifacts of the benchmark."""

import csv
import dataclasses
import gc
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftvalue import draft_audit, io as draft_io, pipeline, team_analysis, valuation
from draftvalue.cli import main
from draftvalue.config import RunConfig
from draftvalue.cescin import css_ordering
from draftvalue.core_model import (
    CATEGORIES,
    POSITIONS,
    CssCategory,
    Draft,
    DraftColumns,
    Metric,
    Position,
    PositionGroup,
    first_invalid_row,
)
from draftvalue.draft_audit import AuditCell, AuditReport, Ordering, audit
from draftvalue.io import load_draft_csv, write_draft_csv
from draftvalue.numerics import SmoothCurve
from draftvalue.synth import SynthConfig, generate_synthetic_draft
from draftvalue.team_analysis import TeamGains, split_half_correlation, team_gains
from draftvalue.valuation import SELECTION_GRID, ValueChart, differential_points, expected_curve, group_rows

from conftest import arrays, one_class

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "bench" / "reference" / "paper5"
STRATIFIED_REFERENCE = ROOT / "bench" / "reference" / "stratified50"


def _load_gate():
    spec = importlib.util.spec_from_file_location("bench_gate", ROOT / "bench" / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

# stage functions the pipeline calls, and the subcommands that must call each
STAGE_FUNCTIONS = {
    "build_orderings": {"cescin", "audit", "curves", "surplus", "teams"},
    "audit": {"audit"},
    "expected_curve": {"curves", "surplus", "chart", "teams"},
    "surplus_for_metric": {"surplus"},
    "draft_value_chart": {"chart"},
    "team_gains": {"teams"},
}
DIFFERENTIAL_CURVES = tuple(f"curves/differential_{m}.csv" for m in gate.METRICS)


def written(out: Path) -> set[str]:
    return {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}


def own_outputs(command: str) -> set[str]:
    extra = DIFFERENTIAL_CURVES if command == "surplus" else ()
    return set(gate.SUBCOMMAND_OUTPUTS[command]) | set(extra)


@pytest.fixture(scope="module")
def one_year_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("one_year") / "draft.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=2, years=1)), path)
    return path


@pytest.fixture(scope="module")
def paper5_csv(tmp_path_factory):
    # the input of the benchmark's paper5 workload at its default seed
    path = tmp_path_factory.mktemp("paper5") / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=5)), path)
    return path


@pytest.mark.parametrize("command", ["cescin", "audit", "curves", "surplus", "chart", "teams", "run"])
def test_subcommand_calls_only_the_stages_it_reads(command, one_year_csv, tmp_path, monkeypatch):
    called = set()
    for name in STAGE_FUNCTIONS:
        def record(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, record)
    assert main([command, str(one_year_csv), "--out", str(tmp_path)]) == 0
    want = set(STAGE_FUNCTIONS) if command == "run" else {
        name for name, commands in STAGE_FUNCTIONS.items() if command in commands
    }
    assert called == want


def _boom(*args, **kwargs):
    raise ValueError("boom")


@pytest.mark.parametrize("command", ["chart", "cescin"])
def test_failing_stages_do_not_touch_other_subcommands(command, one_year_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "audit", _boom)
    monkeypatch.setattr(pipeline, "team_gains", _boom)
    assert main([command, str(one_year_csv), "--out", str(tmp_path)]) == 0
    assert written(tmp_path) == own_outputs(command)


@pytest.mark.parametrize("command, stage", [("audit", "audit"), ("teams", "teams"), ("run", "audit")])
def test_failure_names_the_failing_stage(command, stage, one_year_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "audit", _boom)
    monkeypatch.setattr(pipeline, "team_gains", _boom)
    assert main([command, str(one_year_csv), "--out", str(tmp_path)]) == 3
    assert f"stage {stage}: boom" in capsys.readouterr().err


GROUPS = (None, *PositionGroup)
ALL = frozenset(Metric)
BOTH = (Ordering.TEAM, Ordering.CSS)
# (orderings, group, metrics) of each call that fits expected curves, per
# subcommand: the metrics of one family are fitted together, and `curves`
# and `run` fit the team and scouting families in one call, which shares
# one LOESS fit between them on a draft with every selection
FAMILIES_FITTED = {
    "cescin": set(),
    "audit": set(),
    "curves": {(BOTH, None, ALL)},
    "surplus": {((Ordering.CSS,), None, ALL)},
    "surplus --by-position": {((Ordering.CSS,), g, ALL) for g in GROUPS},
    "chart": {((Ordering.TEAM,), None, frozenset({Metric.TOI}))},
    "teams": {((Ordering.CSS,), None, ALL)},
    "run": {(BOTH, None, ALL)},
    "run --by-position": {(BOTH, None, ALL)} | {((Ordering.CSS,), g, ALL) for g in PositionGroup},
}


@pytest.mark.parametrize("command", sorted(FAMILIES_FITTED))
def test_each_expected_curve_is_fitted_once(command, one_year_csv, tmp_path, monkeypatch):
    calls = []
    fit = pipeline.expected_curve
    signature = inspect.signature(fit)

    def record(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        ranks = call.arguments["ranks"]
        ranks = ranks if isinstance(ranks, tuple) else (ranks,)
        # the team ranks are the draft's own selection column
        team = call.arguments["draft"].columns.selection
        orderings = tuple(Ordering.TEAM if r is team else Ordering.CSS for r in ranks)
        calls.append((orderings, call.arguments["group"], frozenset(call.arguments["metrics"])))
        return fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "expected_curve", record)
    name, *flags = command.split()
    assert main([name, str(one_year_csv), *flags, "--out", str(tmp_path)]) == 0
    assert Counter(calls) == Counter(FAMILIES_FITTED[command])
    fitted = Counter((o, m, g) for orderings, g, metrics in calls for o in orderings for m in metrics)
    assert set(fitted.values()) <= {1}


@pytest.mark.parametrize("command", ["chart", "teams", "surplus"])
def test_curve_failure_names_the_curves_stage(command, one_year_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "expected_curve", _boom)
    assert main([command, str(one_year_csv), "--out", str(tmp_path)]) == 3
    assert "stage curves: boom" in capsys.readouterr().err


def _tree(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("by_position", [False, True])
def test_a_failed_run_leaves_the_output_directory_as_it_was(by_position, one_year_csv, tmp_path, monkeypatch, capsys):
    # the teams stage fails last; every stage is computed before a file is written
    monkeypatch.setattr(pipeline, "team_gains", _boom)
    out = tmp_path / "out"
    (out / "curves").mkdir(parents=True)
    (out / "cescin.json").write_text("from an earlier run")
    (out / "curves" / "expected_gp_css.csv").write_text("x,fitted\r\n")
    before = _tree(out)
    flags = ["--by-position"] if by_position else []
    assert main(["run", str(one_year_csv), *flags, "--out", str(out)]) == 3
    assert "stage teams: boom" in capsys.readouterr().err
    assert _tree(out) == before


def test_too_few_differentials_leave_no_artifacts(tmp_path, capsys):
    # 12 picks from 30 teams in one year: too few rank differentials for the
    # position groups' surplus curves, found after the audit and curves
    assert main(["synth", "--picks", "12", "--teams", "30", "--years", "1", "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "synthetic.csv"), "--by-position", "--out", str(out)]) == 3
    assert "stage surplus: need at least 10 differential points" in capsys.readouterr().err
    assert _tree(out) == {}


def test_a_non_finite_gain_fails_the_surplus_stage(paper5_csv, tmp_path, capsys):
    # accepted constants whose dollars overflow to inf
    config = tmp_path / "huge.cfg"
    config.write_text("dollars.salary_per_game = 1e308\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(paper5_csv), "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage surplus" in err and "not finite" in err and "Traceback" not in err
    assert _tree(out) == {}


@pytest.mark.parametrize("line, stage", [
    ("impute.never_played_gvt = 1e308", "stage audit"),
    ("impute.never_played_gvt = -1e308", "stage audit"),
    ("impute.goalie_minutes_per_game = 1e308", "impute.goalie_minutes_per_game"),
])
def test_an_imputed_value_that_overflows_fails_without_a_warning(line, stage, paper5_csv, tmp_path, capsys):
    # accepted constants whose sums of squares, or imputed TOI, overflow
    config = tmp_path / "huge.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:  # pytest would hide them from stderr
        warnings.simplefilter("always")
        assert main(["run", str(paper5_csv), "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert stage in err and "Warning" not in err and "Traceback" not in err
    assert not caught
    assert not out.exists() or _tree(out) == {}


def _strict_constant(name):
    raise ValueError(f"{name} in strict JSON")


def test_every_json_artifact_of_a_default_run_parses_strictly(paper5_csv, tmp_path):
    assert main(["run", str(paper5_csv), "--out", str(tmp_path)]) == 0
    artifacts = sorted(tmp_path.rglob("*.json"))
    assert len(artifacts) == 4
    for path in artifacts:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_strict_constant)


def test_failure_in_a_dependency_names_the_dependency(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "build_orderings", _boom)
    classes = generate_synthetic_draft(SynthConfig(seed=2, years=1))
    with pytest.raises(pipeline.PipelineError) as info:
        pipeline.run_pipeline(classes, RunConfig(), tmp_path, ("surplus",))
    assert info.value.stage == "cescin"


def test_run_matches_reference(paper5_csv, tmp_path, capsys):
    assert main(["run", str(paper5_csv), "--out", str(tmp_path)]) == 0
    files = gate.run_outputs(by_position=False)
    assert written(tmp_path) == set(files)
    printed = {Path(line).relative_to(tmp_path).as_posix() for line in capsys.readouterr().out.split()}
    assert printed == set(files)
    assert gate.compare_reference(tmp_path, files, REFERENCE) == []


def test_curve_files_are_the_reference_bytes(paper5_csv, tmp_path):
    # curve rows are formatted by hand, to the bytes csv.writer gives: CRLF ends
    assert main(["run", str(paper5_csv), "--out", str(tmp_path)]) == 0
    curves = sorted(f for f in gate.run_outputs(by_position=False) if f.startswith("curves/"))
    assert len(curves) == 9
    for name in curves:
        assert (tmp_path / name).read_bytes() == (REFERENCE / name).read_bytes(), name


def _csv_writer_bytes(header, rows) -> bytes:
    """The bytes csv.writer writes for ``header`` and ``rows``."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


# free text as a team code can hold it: the characters csv.writer quotes,
# spaces, non-ASCII and any other character a UTF-8 file can hold
_TEAMS = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "é", "李", "𝔸"]) | st.characters(blacklist_categories=("Cs",)),
    max_size=8,
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=100, deadline=None)
@given(
    teams=st.lists(st.tuples(_TEAMS, st.integers(0, 10**6), st.lists(_FLOATS, min_size=3, max_size=3)), max_size=6),
    metrics=st.permutations(list(Metric)).flatmap(lambda ms: st.integers(1, 3).map(lambda k: tuple(ms[:k]))),
    cells=st.dictionaries(
        st.tuples(st.sampled_from(list(Metric)), st.sampled_from(list(Ordering)), st.sampled_from(["all", "1-3", "4-7"])),
        st.builds(AuditCell, st.integers(0, 10**6), _FLOATS, _FLOATS),
        min_size=1,
    ),
    chart=st.lists(st.integers(0, 1000), min_size=209, max_size=209).map(lambda v: (1000, *sorted(v, reverse=True))),
)
def test_csv_artifacts_are_the_bytes_csv_writer_gives(tmp_path_factory, teams, metrics, cells, chart):
    # teams.csv, audit.csv and chart.csv are formatted by hand; csv.writer
    # quotes a field that holds a comma, a quote or a line end, doubling quotes
    out = tmp_path_factory.mktemp("artifacts")
    # each row of the table holds the same values; an object array of codes
    # keeps a trailing NUL, which an S array would drop
    codes = np.array([team.encode() for team, _, _ in teams], dtype=object)
    picks = np.array([[count for _, count, _ in teams]] * 3)
    means = {m: np.array([[v[i] for *_, v in teams]] * 3) for i, m in enumerate(Metric)}
    gains = TeamGains(codes, picks, means)
    analysis = SimpleNamespace(
        config=RunConfig(metrics=metrics),
        teams=(gains, {}),
        audit=AuditReport(cells=cells, half_sd={}),
        chart=ValueChart(chart),
    )
    pipeline._write_teams(analysis, out)
    pipeline._write_chart(analysis, out)
    header = ["team", "picks"] + [f"mean_gain_{m.value}" for m in metrics]
    rows = [[team, picks] + [f"{dict(zip(Metric, v))[m]:.4f}" for m in metrics] for team, picks, v in teams]
    assert (out / "teams.csv").read_bytes() == _csv_writer_bytes(header, rows)
    rows = analysis.audit.rows()
    if all(math.isfinite(v) for c in cells.values() for v in (c.optimal_pct, c.nearly_optimal_pct)):
        pipeline._write_audit(analysis, out)
        assert (out / "audit.csv").read_bytes() == _csv_writer_bytes(list(rows[0]), (r.values() for r in rows))
    else:  # audit.json is strict JSON: a non-finite cell fails before either file is written
        with pytest.raises(ValueError, match="not JSON compliant"):
            pipeline._write_audit(analysis, out)
        assert not (out / "audit.json").exists() and not (out / "audit.csv").exists()
    assert (out / "chart.csv").read_bytes() == _csv_writer_bytes(["selection", "value"], analysis.chart.rows())


# a team or name as a draft column holds it: an S column drops a trailing
# NUL, and the csv.reader of Python 3.10 rejects any NUL
_DRAFT_TEXTS = st.lists(
    st.sampled_from([",", '"', "\r", "\n", "\r\n", " ", "é", "李", "𝔸"])
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
).map("".join)
_EDGE_FLOATS = st.sampled_from([-0.0, 1e-300, 1e300])
# (selection, team, name, position, category, rank, gp7, toi7, gvt7) of a
# skater with NHL games, so the loader imputes nothing; UNRANKED has a blank rank
_DRAFT_ROWS = st.tuples(
    st.integers(1, 210),
    _DRAFT_TEXTS,
    _DRAFT_TEXTS,
    st.sampled_from([p for p in POSITIONS if p is not Position.G]),
    st.sampled_from([CssCategory.NA_SKATER, CssCategory.EU_SKATER, CssCategory.UNRANKED]),
    st.integers(1, 40_000),
    st.integers(1, 40_000),
    _EDGE_FLOATS | st.floats(min_value=0.0, allow_infinity=False),
    _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(
    classes=st.lists(st.lists(_DRAFT_ROWS, min_size=1, max_size=5, unique_by=lambda row: row[0]), min_size=1, max_size=3)
)
def test_draft_csv_is_the_bytes_csv_writer_gives(tmp_path_factory, classes):
    # write_draft_csv formats its rows by hand, as the artifacts are; a quoted
    # line end also makes the loader count a row's lines from its fields
    picks = [(year, *row) for year, rows in enumerate(classes, start=1998) for row in sorted(rows, key=lambda row: row[0])]
    year, sel, team, name, pos, cat, rank, gp, toi, gvt = zip(*picks)
    rank = [0 if k is CssCategory.UNRANKED else r for k, r in zip(cat, rank)]
    columns = DraftColumns(
        selection=np.array(sel, np.int16),
        position=np.array(list(map(POSITIONS.index, pos)), np.int8),
        team=np.array([t.encode() for t in team], "S"),
        name=np.array([n.encode() for n in name], "S"),
        category=np.array(list(map(CATEGORIES.index, cat)), np.int8),
        category_rank=np.array(rank),
        metrics={Metric.GP: np.array(gp), Metric.TOI: np.array(toi), Metric.GVT: np.array(gvt)},
    )
    draft = Draft.over(columns, range(1998, 1998 + len(classes)), (0, *accumulate(map(len, classes))))
    path = tmp_path_factory.mktemp("draft") / "draft.csv"
    write_draft_csv(draft, path)
    values = (p.value for p in pos), (k.value for k in cat), (r or "" for r in rank)
    rows = zip(year, sel, team, name, *values, gp, map(repr, toi), map(repr, gvt))
    assert path.read_bytes() == _csv_writer_bytes(draft_io.CSV_COLUMNS, rows)
    if all(text == text.strip() for text in team + name):  # the loader strips a text
        loaded = load_draft_csv(path)
        assert loaded.years == draft.years and loaded.bounds == draft.bounds
        for field, column in arrays(draft.columns).items():  # repr tells -0.0 from 0.0
            assert list(map(repr, arrays(loaded.columns)[field].tolist())) == list(map(repr, column.tolist())), field


@pytest.mark.parametrize("command", sorted(gate.SUBCOMMAND_OUTPUTS))
def test_subcommand_matches_reference(command, paper5_csv, tmp_path, capsys):
    assert main([command, str(paper5_csv), "--out", str(tmp_path)]) == 0
    files = sorted(own_outputs(command))
    assert sorted(written(tmp_path)) == files
    printed = sorted(Path(line).relative_to(tmp_path).as_posix() for line in capsys.readouterr().out.split())
    assert printed == files
    assert gate.compare_reference(tmp_path, files, REFERENCE) == []


def test_by_position_run_matches_reference(tmp_path):
    # the input of the benchmark's stratified50 workload at its default seed
    csv_path = tmp_path / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=50)), csv_path)
    out = tmp_path / "out"
    assert main(["run", str(csv_path), "--by-position", "--out", str(out)]) == 0
    files = gate.run_outputs(by_position=True)
    assert written(out) == set(files)
    assert gate.compare_reference(out, files, STRATIFIED_REFERENCE) == []


def test_a_shared_year_label_gives_the_results_of_distinct_labels():
    # each class reads its own CSS ranks, whatever its year label
    a = generate_synthetic_draft(SynthConfig(seed=0, years=2))
    year = a[0].years[0]
    shared = pipeline.Analysis(Draft([a[0], one_class(year, a[1].columns)]), RunConfig())
    distinct = pipeline.Analysis(Draft([a[0], one_class(year + 1, a[1].columns)]), RunConfig())
    assert shared.surplus.keys() == distinct.surplus.keys()
    for key, (curve, estimate) in distinct.surplus.items():
        assert shared.surplus[key][1] == estimate
        assert np.array_equal(shared.surplus[key][0].values, curve.values)
    (gains, tests), (want, want_tests) = shared.teams, distinct.teams
    assert tests == want_tests
    assert np.array_equal(gains.teams, want.teams) and np.array_equal(gains.picks, want.picks)
    assert gains.means.keys() == want.means.keys()
    for metric, means in want.means.items():  # the late half has no years: its means are NaN
        assert np.array_equal(gains.means[metric], means, equal_nan=True)


def test_cescin_lists_one_year_per_class(tmp_path):
    a = generate_synthetic_draft(SynthConfig(seed=0, years=2))
    draft = Draft([a[0], one_class(a[0].years[0], a[1].columns)])
    pipeline.run_pipeline(draft, RunConfig(), tmp_path, ("cescin",))
    assert json.loads((tmp_path / "cescin.json").read_text())["years"] == [1998, 1998]


def _peak(compute):
    """The tracemalloc peak of ``compute()``, after a warm-up call."""
    compute()
    gc.collect()
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_of_the_scouting_orderings():
    # bound: the tracemalloc peak, 53,444-53,476 bytes, plus about 10%; one
    # rank array per class joined by np.concatenate read 72,088-75,273, and
    # pooling each column the factors read into a copy read 125,412
    draft = generate_synthetic_draft(SynthConfig(seed=0, years=20))
    assert _peak(lambda: pipeline.build_orderings(draft, RunConfig())) <= 59_000


def _table_bytes(draft: Draft) -> int:
    """The ``nbytes`` of every column of ``draft``."""
    columns = draft.columns
    arrays = [getattr(columns, f.name) for f in dataclasses.fields(columns) if f.name != "metrics"]
    return sum(a.nbytes for a in [*arrays, *columns.metrics.values()])


def test_peak_memory_of_a_paper_scale_load(paper5_csv):
    # bound: the tracemalloc peak, 117,088 bytes, plus about 10%; every
    # chunk read through csv.reader read 184,267 (bound 203,000), each
    # chunk's arrays joined in blocks of eight chunks read 239,107-239,498
    # (bound 263,000), and 256-row batches of csv.reader lists, each batch's
    # arrays kept to one join at the end, read 325,516
    assert _peak(lambda: load_draft_csv(paper5_csv)) <= 129_000


def test_peak_memory_of_the_record_rules(tmp_path, monkeypatch):
    # bound: the tracemalloc peak, 43,081-43,089 bytes, plus about 10%; the
    # category rules read through lookup arrays indexed by the int8 codes
    # (an 8 B index a row) read 102,648-102,856, and all 11 rule
    # masks held at once while they were ORed read 161,936-162,640
    path = tmp_path / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=40)), path)
    parsed = []
    monkeypatch.setattr(draft_io, "first_invalid_row", lambda rows: parsed.append(rows))
    load_draft_csv(path)
    (rows,) = parsed
    assert _peak(lambda: first_invalid_row(rows)) <= 47_500


def test_the_load_peak_at_40_years(tmp_path):
    # bound: the tracemalloc peak, 447,379 bytes, plus about 10%; every
    # chunk read through csv.reader read 504,052 (bound 555,000), chunks
    # joined in blocks of eight with int64 selections read 610,875 (bound
    # 672,000), and games and category ranks held as int64 from the first
    # parsed block read 696,891
    path = tmp_path / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=40)), path)
    assert _peak(lambda: load_draft_csv(path)) <= 492_000


def test_the_load_peak_above_its_columns_at_40_years(tmp_path):
    # bound: the peak beyond the loaded columns' nbytes (302,400), 144,947
    # bytes, plus about 10%; every chunk read through csv.reader read 201,652
    # beyond them (bound 222,000), chunks joined in blocks of eight read 308,276
    # beyond them (bound 323,000); int64 selections, years and lines, imputation
    # into new arrays and a sorted copy of every column of a sorted file
    # read 329,307 beyond 453,600; 256-row batches joined once at the end,
    # the rule masks stacked into one array and the sort order held while
    # the draft was built read 502,073
    path = tmp_path / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=40)), path)
    drafts = []
    peak = _peak(lambda: drafts.append(load_draft_csv(path)))
    assert peak - _table_bytes(drafts[-1]) <= 160_000


def test_peak_memory_of_a_paper_scale_run(tmp_path):
    # bound: the tracemalloc peak, 136,474-136,531 bytes, plus about 10%; a
    # LOESS chunk of three (grid points x distinct x) matrices under numpy's
    # 8,192-element operand buffers read 175,209-176,258 (bound 193,000), int64
    # rank arrays read 187,439-188,471, (metrics, picks) tables of outcomes
    # and surpluses read 211,639-213,391, and artifacts written through
    # csv.writer, which allocates a 128 KB record buffer on its first row,
    # read 251,062
    draft = generate_synthetic_draft(SynthConfig(seed=0, years=5))
    assert _peak(lambda: pipeline.run_pipeline(draft, RunConfig(), tmp_path)) <= 150_000


def test_peak_memory_of_the_seven_subcommands(paper5_csv, tmp_path):
    # bound: the tracemalloc peak of one fresh process that calls each data
    # subcommand once, as the benchmark's subcommands5 workload does,
    # 217,610-217,709 bytes, plus about 10%; each call peaks in its load,
    # and chunks joined in blocks of eight read 273,082-273,941 (about
    # 288,000 in the benchmark)
    commands = ("ingest-check", "cescin", "audit", "curves", "surplus", "teams", "chart")
    script = "\n".join([
        "import contextlib, io, tracemalloc",
        "from draftvalue.cli import main",
        "tracemalloc.start()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [main([c, {str(paper5_csv)!r}, '--out', {str(tmp_path)!r}]) for c in {commands!r}]",
        "print(codes, tracemalloc.get_traced_memory()[1])",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, peak = proc.stdout.splitlines()[-1].rsplit(" ", 1)
    assert codes == str([0] * len(commands))
    assert int(peak) <= 240_000


def test_a_loaded_draft_holds_no_per_year_objects(tmp_path):
    # beyond its columns a draft holds one year label and one bound per
    # class: 40 years exceed 20 by 1,527 bytes, where a DraftClass and sliced
    # DraftColumns kept per year exceeded them by 30,433

    def held(years):
        path = tmp_path / f"{years}.csv"
        write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=years)), path)
        load_draft_csv(path)
        gc.collect()
        tracemalloc.start()
        try:
            draft = load_draft_csv(path)
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return traced - _table_bytes(draft)

    assert held(40) - held(20) < 4_000


def test_peak_memory_of_the_team_stage_with_split_halves():
    # bound: the tracemalloc peak, 84,978-84,994 bytes, plus about 10%; one
    # grouped pass reads each metric's differentials once for the gains and
    # both halves, where a pass per half read 119,858 (bound 131,000); int64
    # games, category ranks and team codes read 134,134 (bound 146,000); one
    # surplus table per stage read 197,470-197,838, and computing each half's
    # differentials after its mask read 207,917
    draft = generate_synthetic_draft(SynthConfig(seed=0, years=20))
    config = RunConfig(split_early=range(1998, 2008), split_late=range(2008, 2018))

    def teams():
        analysis = pipeline.Analysis(draft, config)
        analysis.expected(Ordering.CSS, config.metrics)  # the curves and orderings it reads
        gc.collect()
        tracemalloc.start()
        try:
            split_half = analysis.teams[1]["split_half"]
            return tracemalloc.get_traced_memory()[1], split_half
        finally:
            tracemalloc.stop()

    teams()
    peak, split_half = teams()
    assert set(split_half) == {m.value for m in Metric}
    assert peak <= 93_000


def test_the_surplus_stage_holds_one_row_of_differentials():
    # each metric's differentials are built when the fit reads them and
    # dropped before the next: three metrics exceed TOI alone by 7,856 bytes,
    # where a (metrics, picks) table exceeded it by 75,056
    draft = generate_synthetic_draft(SynthConfig(seed=0, years=20))

    def surplus(config):
        def compute():
            analysis = pipeline.Analysis(draft, config)
            analysis.expected(Ordering.CSS, config.metrics)  # the curves and orderings it reads
            gc.collect()
            tracemalloc.start()
            try:
                analysis.surplus
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        compute()
        return compute()

    row = draft.columns.selection.size * np.dtype(float).itemsize
    assert surplus(RunConfig()) - surplus(RunConfig(metrics=(Metric.TOI,))) < row


def test_peak_memory_of_the_audit():
    # bound: the tracemalloc peak, 172,912 bytes, plus about 10%; int64
    # games read 187,408 (bound 210,000); one run of whole classes replays
    # at a time, and replaying all 20 years as one run read 403,926
    draft = generate_synthetic_draft(SynthConfig(seed=0, years=20))

    def audit():
        analysis = pipeline.Analysis(draft, RunConfig())
        analysis.cescin  # the orderings it reads
        gc.collect()
        tracemalloc.start()
        try:
            analysis.audit
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    audit()
    assert audit() <= 190_000


def test_the_team_stage_computes_the_differentials_once(paper5_csv, tmp_path, monkeypatch):
    # the gains and both split halves read one per-pick surplus mapping
    calls = []
    compute = valuation.differential_points

    def record(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    for module in (pipeline, team_analysis, valuation):
        if hasattr(module, "differential_points"):
            monkeypatch.setattr(module, "differential_points", record)
    assert main(["teams", str(paper5_csv), "--out", str(tmp_path)]) == 0
    split_half = json.loads((tmp_path / "team_tests.json").read_text())["split_half"]
    assert set(split_half) == {m.value for m in Metric}
    assert len(calls) == 1


@pytest.mark.parametrize("args, reads", [([], 3), (["--metric", "gvt"], 1)])
def test_the_team_stage_reads_each_metric_row_once(args, reads, paper5_csv, tmp_path, monkeypatch):
    # the gains and both split halves come from one grouped pass over each
    # metric's surplus row; a pass per half read each row three times
    calls = []
    read = valuation._Surplus.__getitem__

    def record(self, metric):
        calls.append(metric)
        return read(self, metric)

    monkeypatch.setattr(valuation._Surplus, "__getitem__", record)
    assert main(["teams", str(paper5_csv), "--out", str(tmp_path), *args]) == 0
    split_half = json.loads((tmp_path / "team_tests.json").read_text())["split_half"]
    assert len(split_half) == reads
    assert len(calls) == reads and len(set(calls)) == reads


@pytest.mark.parametrize("years", [5, 20])
def test_the_audit_makes_one_pass_per_metric_ordering_and_run(years, tmp_path, monkeypatch):
    # runs of whole classes of at most BLOCK_ROWS rows replay together, one
    # pass per (metric, ordering) each; no class is replayed on its own
    passes, per_class = [], []
    compute = draft_audit._replay

    def record(values, ranked, ordered, replay, half_sd):
        passes.append(len(replay.rows))
        return compute(values, ranked, ordered, replay, half_sd)

    monkeypatch.setattr(draft_audit, "_replay", record)
    monkeypatch.setattr(draft_audit, "replay_flags", lambda *args: per_class.append(args))
    data = tmp_path / "input.csv"
    write_draft_csv(generate_synthetic_draft(SynthConfig(seed=0, years=years)), data)
    assert main(["audit", str(data), "--out", str(tmp_path / "out")]) == 0
    per_run = draft_audit.BLOCK_ROWS // 210  # classes of 210 rows
    runs = -(-years // per_run)
    assert passes == [210 * min(per_run, years - i * per_run) for i in range(runs) for _ in range(6)]
    assert not per_class


def test_no_run_imports_numpy_ma(one_year_csv, tmp_path):
    # under numpy 2.4 an np.unique with no return_* flag imports numpy.ma
    # (about 1.09 MB traced) inside the first analysis of a process; checked
    # in a subprocess, since scipy and hypothesis import it under pytest
    script = "\n".join([
        "import sys",
        "from draftvalue.cli import main",
        f"assert main(['run', {str(one_year_csv)!r}, '--by-position', '--out', {str(tmp_path / 'run')!r}]) == 0",
        f"assert main(['teams', {str(one_year_csv)!r}, '--out', {str(tmp_path / 'teams')!r}]) == 0",
        "print('numpy.ma' in sys.modules, 'scipy' in sys.modules)",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"  # and the package needs no scipy


def test_peak_memory_of_a_stratified_run(tmp_path):
    # bound: the tracemalloc peak of this run, 205,042-205,879 bytes, plus
    # about 10%; a team pass per split half read 212,553-213,867 (bound
    # 235,000), a LOESS chunk of three matrices and a whole-column intp copy
    # of the ranks read 245,707-245,936 (bound 270,000), int64 rank arrays
    # read 274,832-276,176, (metrics, picks) tables
    # of outcomes and surpluses read 345,881-346,364, a draft that kept a DraftClass per year and joined
    # per-class CSS ranks by np.concatenate read 359,709-361,003, and text
    # columns as str and integer ties by np.unique read 433,982
    classes = generate_synthetic_draft(SynthConfig(seed=0, years=20))
    config = RunConfig(by_position=True)
    pipeline.run_pipeline(classes, config, tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        pipeline.run_pipeline(classes, config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 226_000


def test_both_orderings_are_read_only_pooled_rank_arrays():
    classes = generate_synthetic_draft(SynthConfig(seed=2, years=2))
    analysis = pipeline.Analysis(classes, RunConfig())
    factors = analysis.cescin[0]
    want = {
        Ordering.TEAM: np.concatenate([dc.columns.selection for dc in classes]),
        Ordering.CSS: np.concatenate([css_ordering(dc, factors) for dc in classes]),
    }
    for ordering, ranks in want.items():
        got = analysis.ranks(ordering)
        assert np.array_equal(got, ranks) and got.dtype.kind == "i"
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0
    assert analysis.ranks(Ordering.TEAM) is classes.columns.selection


@pytest.mark.parametrize("source", ["loader", "synth"])
def test_ranks_are_read_only_int16_under_both_orderings(source, paper5_csv):
    draft = load_draft_csv(paper5_csv) if source == "loader" else generate_synthetic_draft(SynthConfig(seed=0, years=5))
    assert draft.columns.selection.dtype == np.int16
    analysis = pipeline.Analysis(draft, RunConfig())
    for ordering in Ordering:
        ranks = analysis.ranks(ordering)
        assert ranks.dtype == np.int16 and not ranks.flags.writeable


@pytest.mark.parametrize("source", ["loader", "synth"])
def test_games_and_category_ranks_are_read_only_int16(source, paper5_csv):
    draft = load_draft_csv(paper5_csv) if source == "loader" else generate_synthetic_draft(SynthConfig(seed=0, years=5))
    for column in (draft.columns.metrics[Metric.GP], draft.columns.category_rank):
        assert column.dtype == np.int16 and not column.flags.writeable


def test_int64_games_and_category_ranks_write_the_same_artifacts(tmp_path):
    draft = generate_synthetic_draft(SynthConfig(seed=0, years=5))
    columns = draft.columns
    wide = Draft.over(
        dataclasses.replace(
            columns,
            category_rank=columns.category_rank.astype(np.int64),
            metrics={**columns.metrics, Metric.GP: columns.metrics[Metric.GP].astype(np.int64)},
        ),
        draft.years,
        draft.bounds,
    )
    config = RunConfig(by_position=True)
    pipeline.run_pipeline(draft, config, tmp_path / "int16")
    pipeline.run_pipeline(wide, config, tmp_path / "int64")
    assert _tree(tmp_path / "int64") == _tree(tmp_path / "int16") != {}


def test_int64_selections_write_the_same_artifacts(tmp_path):
    draft = generate_synthetic_draft(SynthConfig(seed=0, years=5))
    wide = Draft.over(
        dataclasses.replace(draft.columns, selection=draft.columns.selection.astype(np.int64)), draft.years, draft.bounds
    )
    config = RunConfig(by_position=True)
    pipeline.run_pipeline(draft, config, tmp_path / "int16")
    pipeline.run_pipeline(wide, config, tmp_path / "int64")
    assert _tree(tmp_path / "int64") == _tree(tmp_path / "int16") != {}


FLAT = {m: SmoothCurve(SELECTION_GRID, np.zeros(210)) for m in Metric}
# every function that takes pooled ranks, called on (classes, ranks)
POOLED_RANK_CALLS = {
    "expected_curve": lambda c, r: expected_curve(c, r, [Metric.TOI]),
    "expected_curve of a group": lambda c, r: expected_curve(c, r, [Metric.TOI], group=PositionGroup.F),
    "differential_points": lambda c, r: differential_points(c, r, FLAT),
    "differential_points of a group": lambda c, r: differential_points(c, r, FLAT, group_rows(c, PositionGroup.D)),
    "css_curves": lambda c, r: pipeline.css_curves(c, r, RunConfig()),
    "surplus_for_metric": lambda c, r: pipeline.surplus_for_metric(c, r, FLAT, RunConfig()),
    "audit": lambda c, r: audit(c, {Ordering.CSS: r}),
    # the team statistics take a per-pick surplus row, here the ranks as floats
    "team_gains": lambda c, r: team_gains(c, {Metric.TOI: r.astype(float)}),
    "split_half_correlation": lambda c, r: split_half_correlation(team_gains(c, {Metric.TOI: r.astype(float)}, [1998], [1999])),
}


@pytest.mark.parametrize("call", sorted(POOLED_RANK_CALLS))
def test_pooled_ranks_of_another_length_are_rejected(call):
    classes = generate_synthetic_draft(SynthConfig(seed=2, years=2))
    _, ranks = pipeline.build_orderings(classes, RunConfig())
    POOLED_RANK_CALLS[call](classes, ranks)
    for rows in (len(ranks) - 1, len(ranks) + 1):
        with pytest.raises(ValueError, match=f"^{rows} ranks for {len(ranks)} rows$"):
            POOLED_RANK_CALLS[call](classes, np.resize(ranks, rows))
