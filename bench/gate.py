"""Output gate: what each CLI call must produce, the invariants the
artifacts must hold, and the comparison against stored reference artifacts.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Sequence

METRICS = ("toi", "gp", "gvt")
ORDERINGS = ("team", "css")
GROUPS = ("f", "d", "g")
CHART_ROWS = 210

EXPECTED_CURVES = tuple(f"curves/expected_{m}_{o}.csv" for o in ORDERINGS for m in METRICS)

# relative paths each partial subcommand prints
SUBCOMMAND_OUTPUTS = {
    "cescin": ("cescin.json",),
    "audit": ("audit.json", "audit.csv"),
    "curves": EXPECTED_CURVES,
    "surplus": ("gains.json",),
    "teams": ("teams.csv", "team_tests.json"),
    "chart": ("chart.csv",),
}

# floats that are exact functions of integer counts or rounded to integers
EXACT_FIELDS = frozenset({"optimal_pct", "nearly_optimal_pct", "value"})
# CSV columns the program rounds to a fixed number of decimals; a change in
# summation order may move the last printed digit
ROUNDED_PREFIXES = ("fitted", "mean_gain_")
REL_TOL = 1e-9


def run_outputs(by_position: bool) -> tuple[str, ...]:
    """Every artifact ``run`` writes for the default config."""
    keys = list(METRICS)
    if by_position:
        keys += [f"{m}_{g}" for m in METRICS for g in GROUPS]
    fixed = tuple(p for paths in SUBCOMMAND_OUTPUTS.values() for p in paths)
    return fixed + tuple(f"curves/differential_{k}.csv" for k in keys)


def expected_outputs(call: Sequence[str]) -> tuple[str, ...]:
    if call[0] == "run":
        return run_outputs("--by-position" in call)
    return SUBCOMMAND_OUTPUTS.get(call[0], ())


def check_call(call: Sequence[str], rc, stdout: str, out_dir: Path, years: Sequence[int]) -> list[str]:
    """Exit status and printed output of one CLI call."""
    name = call[0]
    if isinstance(rc, BaseException):
        return [f"{name}: raised {type(rc).__name__}: {rc}"]
    if rc != 0:
        return [f"{name}: exit code {rc}"]
    lines = stdout.splitlines()
    if name == "ingest-check":
        want = [f"year {y}: {CHART_ROWS} records" for y in years]
        return [] if lines == want else [f"ingest-check: printed {lines[:3]}..., want {want[:3]}..."]
    printed = set()
    for line in lines:
        path = Path(line)
        try:
            printed.add(path.relative_to(out_dir).as_posix())
        except ValueError:
            return [f"{name}: printed {line!r}, outside {out_dir}"]
    missing = [p for p in expected_outputs(call) if p not in printed or not (out_dir / p).is_file()]
    return [f"{name}: missing {p}" for p in missing]


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_invariants(out_dir: Path, files: Sequence[str]) -> list[str]:
    """Chart shape and monotonicity; audit percentages in range and ordered."""
    failures = []
    if "chart.csv" in files:
        rows = _read_csv(out_dir / "chart.csv")
        values = [int(v) for _, v in rows[1:]]
        if rows[0] != ["selection", "value"]:
            failures.append(f"chart.csv: header {rows[0]}")
        if len(values) != CHART_ROWS:
            failures.append(f"chart.csv: {len(values)} rows, want {CHART_ROWS}")
        elif values[0] != 1000:
            failures.append(f"chart.csv: starts at {values[0]}, want 1000")
        if any(b > a for a, b in zip(values, values[1:])):
            failures.append("chart.csv: values increase")
    cells = []
    if "audit.json" in files:
        cells += json.loads((out_dir / "audit.json").read_text())["cells"]
    if "audit.csv" in files:
        with (out_dir / "audit.csv").open(newline="", encoding="utf-8") as fh:
            cells += list(csv.DictReader(fh))
    for cell in cells:
        opt, near = float(cell["optimal_pct"]), float(cell["nearly_optimal_pct"])
        where = f"audit {cell['metric']}/{cell['ordering']}/{cell['rounds']}"
        if not (0.0 <= opt <= 100.0 and 0.0 <= near <= 100.0):
            failures.append(f"{where}: percentage outside [0, 100]")
        if opt > near:
            failures.append(f"{where}: optimal {opt} > nearly optimal {near}")
    return failures


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: float, want: float, field: str, want_text: Optional[str] = None) -> bool:
    if field in EXACT_FIELDS:
        return got == want
    tol = REL_TOL * max(abs(got), abs(want))
    if want_text is not None and field.startswith(ROUNDED_PREFIXES) and "." in want_text:
        tol = max(tol, 10.0 ** -len(want_text.split(".")[1]))
    return abs(got - want) <= tol


def _compare_json(got, want, where: str, field: str = "") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [f for k in want for f in _compare_json(got[k], want[k], f"{where}.{k}", k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [f for i, (g, w) in enumerate(zip(got, want)) for f in _compare_json(g, w, f"{where}[{i}]", field)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(float(got), want, field) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _compare_csv(got_path: Path, want_path: Path, name: str) -> list[str]:
    got, want = _read_csv(got_path), _read_csv(want_path)
    if not got or got[0] != want[0]:
        return [f"{name}: header differs"]
    if len(got) != len(want):
        return [f"{name}: {len(got) - 1} rows, want {len(want) - 1}"]
    header = want[0]
    failures = []
    for r, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=2):
        for field, g, w in zip(header, grow, wrow):
            gn, wn = _number(g), _number(w)
            if isinstance(wn, int) and isinstance(gn, int):
                ok = gn == wn
            elif wn is not None and gn is not None:
                ok = _close(float(gn), float(wn), field, w)
            else:
                ok = g == w
            if not ok:
                failures.append(f"{name} line {r} {field}: {g!r} != {w!r}")
    return failures


def compare_reference(out_dir: Path, files: Sequence[str], reference: Path) -> list[str]:
    """Chart values and audit percentages exactly; other floats to a
    relative 1e-9, or one unit in the last printed digit where the program
    rounds its output."""
    failures = []
    for name in files:
        got, want = out_dir / name, reference / name
        if name.endswith(".json"):
            failures += _compare_json(json.loads(got.read_text()), json.loads(want.read_text()), name)
        else:
            failures += _compare_csv(got, want, name)
    return failures
