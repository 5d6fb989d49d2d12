"""Smoke test of the benchmark itself.

Every workload runs briefly in both modes and must print every metric
BENCHMARK.json names, with its unit. A corrupted reference artifact must
fail the output gate, and a directory without the draftvalue sources must
exit non-zero without a result. Takes a few minutes:

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int = 0, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src" / "draftvalue", dest / "src" / "draftvalue", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    human = proc.stdout.splitlines()[:-1]
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in human), m


def _bump_chart(path: Path) -> None:
    rows = path.read_text().splitlines()
    sel, value = rows[100].split(",")
    rows[100] = f"{sel},{int(value) + 1}"
    path.write_text("\n".join(rows) + "\n")


def _scale_gain(factor: float):
    def edit(path: Path) -> None:
        gains = json.loads(path.read_text())
        gains["gp"]["per_pick"] *= factor
        path.write_text(json.dumps(gains, indent=2))
    return edit


@pytest.mark.parametrize(
    "artifact, edit, passes",
    [
        ("chart.csv", _bump_chart, False),
        ("gains.json", _scale_gain(1.0 + 1e-7), False),
        ("gains.json", _scale_gain(1.0 + 1e-12), True),
    ],
    ids=["chart-value", "float-beyond-tolerance", "float-within-tolerance"],
)
def test_reference_artifacts_gate_the_result(tmp_path, artifact, edit, passes):
    checkout = copy_checkout(tmp_path)
    edit(checkout / "bench" / "reference" / "paper5" / artifact)
    proc = run_bench(checkout, "paper5")
    result = result_of(proc)
    assert result["correct"] is passes
    assert (proc.returncode == 0) is passes
    assert (result["failed"] == 0) is passes


def test_directory_without_sources_exits_nonzero_without_result(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(checkout, "paper5")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
