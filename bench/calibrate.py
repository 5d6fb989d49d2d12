"""Calibrated seconds: wall times corrected for the machine's current speed.

On a shared host the speed of this process switches, within seconds,
between a fast and a slow state (here about 1.5x apart) as other tenants
load the machine, so the same analysis takes anywhere from 2.2 to 3.6 s
and a run's median moves by a fifth between runs. A sampler process times
a small fixed kernel about every ``PERIOD_S`` seconds while the benchmark
runs, and each measured step's wall time is scaled by the speed the
kernel saw during that step:

    calibrated seconds = wall seconds * REFERENCE_S / kernel seconds during the step

where the kernel seconds during a step are the median of the kernel
timings that started within it, or of the ``MIN_SAMPLES`` timings nearest
to it when fewer did. The kernel does not depend on draftvalue, so only
the program moves calibrated seconds. It costs the sampler a few percent
of one CPU.

Run as a script, this module is the sampler; it appends ``<start> <seconds>``
lines to the given file until it is terminated or its parent exits.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# median kernel seconds on the machine the baseline in baseline.json was measured on
REFERENCE_S = 0.0008
PERIOD_S = 0.025
MIN_SAMPLES = 5
START_TIMEOUT_S = 60.0

_POINTS = np.arange(2_000, dtype=float)


def now() -> float:
    """A clock shared by all processes of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def kernel_seconds() -> float:
    """Numpy distance and partition calls, as in a LOESS fit, and a
    pure-Python scan of a shrinking pool, as in the audit replay."""
    start = time.perf_counter()
    acc = 0.0
    for x0 in range(0, 2_000, 100):
        d = np.abs(_POINTS - x0)
        acc += float(d[np.argpartition(d, 999)[:1_000]].max())
    pool = set(range(60))
    for i in range(60):
        acc += max(j for j in pool if j % 3 == i % 3)
        pool.discard(i)
    seconds = time.perf_counter() - start
    if acc <= 0:  # consume the result so no step can be skipped
        raise RuntimeError("calibration kernel produced no result")
    return seconds


class SamplerError(RuntimeError):
    pass


class Sampler:
    """Runs the kernel in a separate process for the duration of a
    ``with`` block; ``factors`` may be called inside the block."""

    def __init__(self, path: Path):
        self.path = path
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Sampler":
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        deadline = now() + START_TIMEOUT_S
        while len(self._samples()) < MIN_SAMPLES:
            if self.proc.poll() is not None or now() > deadline:
                self.__exit__(None, None, None)
                raise SamplerError("calibration sampler did not start")
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is not None:
            self.proc.terminate()
            self.proc.wait(timeout=30)
            self.proc = None

    def _samples(self) -> list[tuple[float, float]]:
        if not self.path.exists():
            return []
        # the text after the last newline may be a line still being written
        lines = self.path.read_text().split("\n")[:-1]
        return [(float(t), float(s)) for t, s in (line.split() for line in lines)]

    def factors(self, windows: list[tuple[float, float]]) -> list[float]:
        """Calibration factor of each step given as (start, end) on ``now()``."""
        samples = self._samples()
        if len(samples) < MIN_SAMPLES:
            raise SamplerError("calibration sampler stopped")
        out = []
        for start, end in windows:
            inside = [s for t, s in samples if start <= t <= end]
            if len(inside) < MIN_SAMPLES:
                mid = (start + end) / 2.0
                nearest = sorted(samples, key=lambda ts: abs(ts[0] - mid))[:MIN_SAMPLES]
                inside = [s for _, s in nearest]
            out.append(REFERENCE_S / statistics.median(inside))
        return out


def _sample(path: str) -> None:
    parent = os.getppid()
    with open(path, "a", encoding="utf-8") as fh:
        while os.getppid() == parent:
            start = now()
            fh.write(f"{start!r} {kernel_seconds()!r}\n")
            fh.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample(sys.argv[1])
