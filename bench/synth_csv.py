"""Set-up step of one benchmark run: import draftvalue, generate the
workload's synthetic drafts and write them as the input CSV.

``run.py`` starts this script in a fresh interpreter several times, so the
import is paid on every set-up as a user pays it on every command:

    python3 bench/synth_csv.py --years 5 --seed 0 --out .bench_out/input.csv

It prints one JSON line with ``setup_s`` (import + generate + write) and
the CSV's SHA-256, which must agree between set-ups of one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

from checkout import check_imported, put_package_on_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--years", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    put_package_on_path()
    start = time.perf_counter()
    import draftvalue
    from draftvalue.io import write_draft_csv
    from draftvalue.synth import SynthConfig, generate_synthetic_draft

    classes = generate_synthetic_draft(SynthConfig(seed=args.seed, years=args.years))
    write_draft_csv(classes, args.out)
    setup_s = time.perf_counter() - start

    check_imported(draftvalue)
    digest = hashlib.sha256(args.out.read_bytes()).hexdigest()
    print(json.dumps({"setup_s": setup_s, "sha256": digest}))


if __name__ == "__main__":
    main()
