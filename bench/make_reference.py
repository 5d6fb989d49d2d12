"""Regenerate the reference artifacts the output gate compares against for
the default seed. Run from the root of a checkout after a change meant to
alter the program's outputs, and review the diff it leaves in
``bench/reference``:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import shutil
import sys

import gate
from checkout import BENCH, OUT
from run import DEFAULT_SEED, WORKLOADS, Runner, load_cli


def main() -> int:
    cli = load_cli()
    from draftvalue.io import write_draft_csv
    from draftvalue.synth import SynthConfig, generate_synthetic_draft

    for name in sorted({w.reference for w in WORKLOADS.values()}):
        workload = WORKLOADS[name]
        work_dir = OUT / "make_reference" / name
        work_dir.mkdir(parents=True, exist_ok=True)
        csv_path = work_dir / "input.csv"
        write_draft_csv(
            generate_synthetic_draft(SynthConfig(seed=DEFAULT_SEED, years=workload.years)), csv_path
        )
        runner = Runner(cli, workload, csv_path, work_dir / "artifacts", reference=None)
        _, results = runner.call()
        runner.check(results)
        if runner.failures:
            print(f"{name}: outputs fail the gate, reference not written", file=sys.stderr)
            return 1
        target = BENCH / "reference" / name
        shutil.rmtree(target, ignore_errors=True)
        for call in workload.calls:
            for rel in gate.expected_outputs(call):
                (target / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(runner.out_dir / rel, target / rel)
        print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
