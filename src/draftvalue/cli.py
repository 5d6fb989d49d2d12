"""Command-line entry point.

Subcommands: ingest-check, synth, cescin, audit, curves, surplus, teams,
chart, run. Exit codes: 0 success, 1 usage/config/--out error, 2 data error,
3 numeric failure. ``DRAFTVAL_OUT`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import RunConfig, load_config
from .core_model import Metric
from .io import DataError, load_draft_csv, write_draft_csv
from .pipeline import STAGES, PipelineError, run_pipeline
from .reference_chart import reference_chart
from .synth import SynthConfig, generate_synthetic_draft

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _synth_flag(field: str):
    """An argparse type: an int that ``SynthConfig`` accepts as ``field``, so
    a value it rejects is reported under the flag's name."""

    def parse(text: str) -> int:
        try:
            return getattr(SynthConfig(**{field: int(text)}), field)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _build_parser() -> _Parser:
    """The parser; ``--out`` defaults to None, which ``main`` resolves from
    ``DRAFTVAL_OUT`` at each call."""
    parser = _Parser(prog="draftval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = dict(type=Path, help="output directory (default $DRAFTVAL_OUT or ./out)")
    # help of each data subcommand, and whether it reads --metric and --by-position
    for name, summary, metric, by_position in (
        ("ingest-check", "validate a draft CSV", False, False),
        ("cescin", "integrated scouting ordering and factors", False, False),
        ("audit", "optimal / nearly-optimal replay percentages", True, False),
        ("curves", "expected-performance curves per ordering", True, False),
        ("surplus", "scouting surplus per pick and in dollars", True, True),
        ("teams", "per-team gains and significance checks", True, False),
        ("chart", "monotone draft value pick chart", False, False),
        ("run", "full pipeline", True, True),
    ):
        p = sub.add_parser(name, help=summary)
        if name == "run":
            data = p.add_mutually_exclusive_group(required=True)
            data.add_argument("data", nargs="?", help="draft CSV file")
            data.add_argument("--seed", type=_synth_flag("seed"), help="use synthetic data instead")
        else:
            p.add_argument("data", help="draft CSV file")
        p.add_argument("--config", type=Path, help="flat key/value config file")
        p.add_argument("--out", **out)
        if metric:
            p.add_argument(
                "--metric",
                choices=["toi", "gp", "gvt", "all"],
                default="all",
                help="restrict analysis to one metric",
            )
        if by_position:
            p.add_argument("--by-position", action="store_true", help="stratify by position group")

    p = sub.add_parser("synth", help="write a synthetic draft CSV")
    p.add_argument("--out", **out)
    p.add_argument("--seed", type=_synth_flag("seed"), default=0)
    p.add_argument("--years", type=_synth_flag("years"), default=5)
    p.add_argument("--picks", type=_synth_flag("picks_per_year"), default=210)
    p.add_argument("--teams", type=_synth_flag("teams"), default=30)

    sub.add_parser("reference-chart", help="print the embedded published pick chart")
    return parser


_PARSER = _build_parser()  # built once per process: about 2 ms, which main would pay per call


def _run_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"config {args.config}: {exc}") from exc
    if getattr(args, "metric", "all") != "all":
        cfg = dataclasses.replace(cfg, metrics=(Metric(args.metric),))
    if getattr(args, "by_position", False):
        cfg = dataclasses.replace(cfg, by_position=True)
    return cfg


def _out_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out {path}: {exc.strerror}") from exc
    return path


def _write(out: Path, write, *args):
    """``write(*args)``; a stage reports its failures as ``PipelineError``,
    so an ``OSError`` is a write into ``out`` that failed."""
    try:
        return write(*args)
    except OSError as exc:
        raise _UsageError(f"--out {out}: cannot write {exc.filename}: {exc.strerror}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = _PARSER.parse_args(argv)
        if "out" in args and args.out is None:
            args.out = Path(os.environ.get("DRAFTVAL_OUT", "out"))
        if args.command == "reference-chart":
            for sel, value in reference_chart().rows():
                print(f"{sel},{value}")
            return EXIT_OK

        if args.command == "synth":
            config = SynthConfig(
                seed=args.seed, years=args.years, picks_per_year=args.picks, teams=args.teams
            )
            path = _out_dir(args.out) / "synthetic.csv"
            _write(args.out, write_draft_csv, generate_synthetic_draft(config), path)
            print(path)
            return EXIT_OK

        cfg = _run_config(args)
        if args.command == "run" and args.seed is not None:
            draft = generate_synthetic_draft(SynthConfig(seed=args.seed), cfg.imputation)
        else:
            draft = load_draft_csv(args.data, cfg.imputation)

        if args.command == "ingest-check":
            for year, lo, hi in zip(draft.years, draft.bounds, draft.bounds[1:]):
                print(f"year {year}: {hi - lo} records")
            return EXIT_OK

        stages = STAGES if args.command == "run" else (args.command,)
        paths = _write(args.out, run_pipeline, draft, cfg, _out_dir(args.out), stages)
        for path in paths:
            print(path)
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
