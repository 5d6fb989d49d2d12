"""Locations inside the checkout the benchmark runs from.

The benchmark lives in ``bench/`` at the root of a source checkout and
imports draftvalue from ``src/`` beside it, never from an installed copy,
so that it measures the code in the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"


class CheckoutError(RuntimeError):
    """The checkout does not hold the draftvalue sources."""


def put_package_on_path() -> None:
    """Make ``import draftvalue`` resolve to ``src/draftvalue`` of this checkout."""
    if not (SRC / "draftvalue" / "__init__.py").is_file():
        raise CheckoutError(f"no draftvalue sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse a draftvalue module that was not loaded from this checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise CheckoutError(f"draftvalue imported from {path}, not from {SRC}")
