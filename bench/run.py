"""draftvalue benchmark.

One closed-loop caller (one process, one thread) drives
``draftvalue.cli.main`` in-process on a synthetic draft CSV generated from
``--seed``; each analysis starts after the previous one returns and is
checked by the output gate (``gate.py``). Run from the root of a checkout:

    python3 bench/run.py --workload paper5 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
alternates untraced and traced analyses and reports per-layer metrics from
spans recorded around the calls into each module (``tracing.py``), plus the
tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Details and spans are written under
``.bench_out/<workload>/``. Times are calibrated seconds
(``calibrate.py``). The exit code is 0 when every analysis passed the
gate, 1 when one failed, and 2 when the checkout holds no draftvalue
sources or set-up or calibration failed.
"""

from __future__ import annotations

import os

# single-threaded BLAS/OpenMP, fixed before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import logging
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import calibrate
import gate
import tracing
from checkout import BENCH, OUT, CheckoutError, check_imported, put_package_on_path

SUBCOMMANDS = ("ingest-check", "cescin", "audit", "curves", "surplus", "teams", "chart")
DEFAULT_SEED = 0  # the seed whose artifacts are stored under bench/reference
SETUPS = 5  # set-ups per run; setup_s is their median
FIRST_YEAR = 1998  # SynthConfig's default first draft year
MB = 1e6


@dataclass(frozen=True)
class Workload:
    years: int
    # subcommand and flags of each CLI call; the CSV and --out are appended
    calls: tuple[tuple[str, ...], ...]
    reference: str  # directory under bench/reference for the default seed


WORKLOADS = {
    "paper5": Workload(5, (("run",),), "paper5"),
    "stratified50": Workload(50, (("run", "--by-position"),), "stratified50"),
    "subcommands5": Workload(5, tuple((s,) for s in SUBCOMMANDS), "paper5"),
}

END_TO_END = {
    "setup_s": "s",
    "analysis_s_p50": "s",
    "analysis_s_p90": "s",
    "draft_years_per_s": "years/s",
    "peak_alloc_mb": "MB",
}

COUNTS = (
    "io.rows_read",
    "draft_audit.replays",
    "draft_audit.pool_scans",
    "numerics.loess_fits",
    "numerics.loess_point_evals",
    "cli.subcommand_calls",
)
PER_LAYER = {
    "io.load_draft_csv_s": "s",
    "io.rows_per_s": "rows/s",
    "cescin.build_orderings_s": "s",
    "draft_audit.audit_s": "s",
    "draft_audit.replay_flags_s": "s",
    "valuation.expected_curve_s": "s",
    "valuation.surplus_s": "s",
    "valuation.draft_value_chart_s": "s",
    "numerics.loess_fit_s": "s",
    "numerics.antitonic_fit_s": "s",
    "numerics.shapiro_wilk_s": "s",
    "team_analysis.team_tests_s": "s",
    "pipeline.write_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS if layer != "pipeline"},
    "trace.overhead_ratio": "ratio",
    **{f"{stage}.peak_alloc_mb": "MB" for stage in tracing.STAGES},
    **{name: "count" for name in COUNTS},
}


def load_cli():
    """Import ``draftvalue.cli`` from this checkout, with INFO logging off."""
    put_package_on_path()
    from draftvalue import cli

    check_imported(cli)
    # cli.main's basicConfig(INFO) is a no-op once the root logger has a handler
    logging.basicConfig(level=logging.WARNING)
    logging.getLogger("draftvalue").setLevel(logging.WARNING)
    return cli


class SetupError(RuntimeError):
    pass


# wall seconds of one measured step and its (start, end) on calibrate.now()
Timed = tuple[float, tuple[float, float]]


def calibrated(sampler: calibrate.Sampler, timed: list[Timed]) -> list[float]:
    factors = sampler.factors([window for _, window in timed])
    return [wall * factor for (wall, _), factor in zip(timed, factors)]


def set_up(workload: Workload, seed: int, csv_path: Path) -> tuple[list[Timed], list[str]]:
    """Generate the input CSV ``SETUPS`` times in fresh interpreters; return
    each set-up's own time (import, generate, write) and any disagreement
    between the CSVs."""
    timed, digests = [], set()
    for _ in range(SETUPS):
        start = calibrate.now()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "synth_csv.py"),
             "--years", str(workload.years), "--seed", str(seed), "--out", str(csv_path)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up failed: {proc.stderr.strip()}")
        record = json.loads(proc.stdout.splitlines()[-1])
        timed.append((record["setup_s"], (start, calibrate.now())))
        digests.add(record["sha256"])
    failures = [] if len(digests) == 1 else ["set-up: CSVs of one seed differ"]
    return timed, failures


class Runner:
    """Runs analyses of one workload and gates their artifacts."""

    def __init__(self, cli, workload: Workload, csv_path: Path, out_dir: Path,
                 reference: Optional[Path]):
        self.cli = cli
        self.workload = workload
        self.csv_path = csv_path
        self.out_dir = out_dir
        self.reference = reference
        self.years = range(FIRST_YEAR, FIRST_YEAR + workload.years)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self) -> tuple[Timed, list]:
        """Every CLI call of one analysis, timed as a whole."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        results = []
        start = calibrate.now()
        for call in self.workload.calls:
            argv = [call[0], str(self.csv_path), *call[1:], "--out", str(self.out_dir)]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(argv)
            except Exception as exc:  # a crash fails this analysis, not the benchmark
                rc = exc
            results.append((call, rc, buf.getvalue()))
        end = calibrate.now()
        return (end - start, (start, end)), results

    def check(self, results: list) -> None:
        failures, files = [], set()
        for call, rc, stdout in results:
            failures += gate.check_call(call, rc, stdout, self.out_dir, self.years)
            files.update(gate.expected_outputs(call))
        if not failures:
            try:
                failures += gate.check_invariants(self.out_dir, sorted(files))
                if self.reference is not None:
                    failures += gate.compare_reference(self.out_dir, sorted(files), self.reference)
            except Exception as exc:  # a malformed artifact fails the gate
                failures.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += failures
            for failure in failures[:10]:
                print(f"gate: {failure}", file=sys.stderr)

    def analyse(self) -> Timed:
        timed, results = self.call()
        self.check(results)
        return timed

    def peak_alloc(self, tracer: Optional[tracing.Tracer] = None) -> float:
        """tracemalloc peak, in MB, over one untimed analysis."""
        tracemalloc.start()
        try:
            if tracer is None:
                _, results = self.call()
            else:
                with tracer.installed():
                    _, results = self.call()
            peak = max(tracemalloc.get_traced_memory()[1], tracer.peak if tracer else 0)
        finally:
            tracemalloc.stop()
        self.check(results)
        return peak / MB


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "load": "closed loop, 1 caller, 1 thread",
    }


def _line(name: str, value, unit: str, note: str = "") -> str:
    text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
    return f"{name:<32} {text:<14} {unit:<8} {note}".rstrip()


def _timed_loop(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` have passed, and at least once."""
    deadline = calibrate.now() + seconds
    step()
    while calibrate.now() < deadline:
        step()


def measure_untraced(runner: Runner, sampler: calibrate.Sampler, seconds: float,
                     setups: list[Timed]) -> tuple[dict, list[str], dict]:
    peak_mb = runner.peak_alloc()
    timed: list[Timed] = []
    _timed_loop(seconds, lambda: timed.append(runner.analyse()))
    samples = calibrated(sampler, timed)
    setup_s = calibrated(sampler, setups)
    years, n = runner.workload.years, len(samples)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "analysis_s_p50": statistics.median(samples),
        "analysis_s_p90": percentile(samples, 90),
        "draft_years_per_s": years * n / sum(samples),
        "peak_alloc_mb": peak_mb,
    }
    wall = [w for w, _ in timed]
    above = sum(1 for s in samples if s > metrics["analysis_s_p90"])
    notes = {
        "setup_s": f"median of {SETUPS} set-ups: import, generate, write CSV",
        "analysis_s_p50": f"n={n}; wall {statistics.median(wall):.6g} s",
        "analysis_s_p90": f"n={n}, {above} above" + ("" if above >= 10 else ": fewer than 10, a rough tail"),
        "draft_years_per_s": f"{years} years x {n} analyses / {sum(samples):.6g} s",
        "peak_alloc_mb": "one untimed analysis under tracemalloc",
    }
    lines = [_line(k, v, END_TO_END[k], notes[k]) for k, v in metrics.items()]
    detail = {"analysis_s": samples, "analysis_wall_s": wall,
              "setup_s": setup_s, "setup_wall_s": [w for w, _ in setups]}
    return metrics, lines, detail


def measure_traced(runner: Runner, sampler: calibrate.Sampler,
                   seconds: float) -> tuple[dict, list[str], dict]:
    memory = tracing.Tracer(memory=True)
    runner.peak_alloc(memory)
    tracer = tracing.Tracer()
    untraced: list[Timed] = []
    traced: list[Timed] = []

    def step():
        untraced.append(runner.analyse())
        tracer.analysis = len(traced)
        with tracer.installed():
            traced.append(runner.analyse())

    _timed_loop(seconds, step)
    per_analysis = [
        tracing.analysis_metrics([s for s in tracer.spans if s.analysis == a], factor)
        for a, factor in enumerate(sampler.factors([window for _, window in traced]))
    ]
    counts = [{k: m[k] for k in COUNTS} for m in per_analysis]
    if any(c != counts[0] for c in counts):
        runner.failures.append("work counts differ between analyses")
    medians = tracing.median_metrics(per_analysis)
    untraced_p50 = statistics.median(calibrated(sampler, untraced))
    metrics = {k: medians[k] for k in PER_LAYER if k in medians}
    metrics.update(counts[0])
    metrics["trace.overhead_ratio"] = medians["trace.stage_sum_s"] / untraced_p50
    for stage in tracing.STAGES:
        metrics[f"{stage}.peak_alloc_mb"] = memory.stage_peaks.get(stage, 0) / MB
    metrics = {k: metrics[k] for k in PER_LAYER}

    lines = [
        f"traced analyses n={len(traced)}, untraced n={len(untraced)}; "
        f"traced stage sum {medians['trace.stage_sum_s']:.6g} s vs untraced "
        f"analysis_s_p50 {untraced_p50:.6g} s"
    ]
    lines += [_line(k, v, PER_LAYER[k], "computed" if k in COUNTS else "") for k, v in metrics.items()]
    cli_calls = {
        k: v for k, v in medians.items()
        if k.startswith("cli.") and k.endswith("_s") and k != "cli.self_s"
    }
    lines += [_line(k, v, "s", "per call") for k, v in cli_calls.items()]
    detail = {"cli_calls_s": cli_calls, "untraced_wall_s": [w for w, _ in untraced],
              "traced_wall_s": [w for w, _ in traced]}
    (runner.out_dir.parent / "spans.json").write_text(json.dumps(tracer.dump()))
    return metrics, lines, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except (CheckoutError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    csv_path = work_dir / "input.csv"
    reference = BENCH / "reference" / workload.reference if args.seed == DEFAULT_SEED else None
    runner = Runner(cli, workload, csv_path, work_dir / "artifacts", reference)
    try:
        with calibrate.Sampler(work_dir / "kernel.txt") as sampler:
            setups, setup_failures = set_up(workload, args.seed, csv_path)
            runner.failures += setup_failures
            # the untimed tracemalloc analysis that each mode starts with
            # also warms the process up before timing
            if args.trace:
                metrics, lines, detail = measure_traced(runner, sampler, args.seconds)
                units = PER_LAYER
            else:
                metrics, lines, detail = measure_untraced(runner, sampler, args.seconds, setups)
                units = END_TO_END
    except (SetupError, calibrate.SamplerError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    env = environment()
    correct = not runner.failures
    print(
        f"draftvalue benchmark: workload {args.workload}, seed {args.seed}, "
        f"trace {'on' if args.trace else 'off'}, {env['load']}"
    )
    print(
        f"environment: nproc {env['nproc']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}"
    )
    print(
        f"input: {workload.years} years, {len(workload.calls)} CLI call(s) per analysis; "
        f"gate: exit 0, artifact set, invariants"
        + (", reference artifacts" if reference else "")
    )
    print(
        f"times: calibrated seconds = wall x {calibrate.REFERENCE_S} s / kernel seconds "
        "during each step (bench/calibrate.py)"
    )
    for line in lines:
        print(line)
    print(_line("failed_ratio", runner.failed / runner.attempted, "ratio",
                f"{runner.failed} of {runner.attempted} analyses"))

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (work_dir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "environment": env,
         "failures": runner.failures[:50], "detail": detail}, indent=2))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
