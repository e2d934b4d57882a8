"""Speed samples that rescale a process's times to one reference speed.

A `Clock` stamps the time at the start of every garbage collection of
its process, and wherever `mark` is called, and at each stamp times a
small fixed dict loop (`calibrate`).  A collection starts after a fixed
number of container allocations, so the samples fall evenly over the
work, a few milliseconds apart.  The loop's time says how fast the CPU
ran the process just then: the shared host slows each vCPU down by up to
1.6 times, for seconds to minutes at a time, and the loop slows down
with it.  `run.py` rescales each process's times by the mean loop time
of its samples; NOTES.md has the measurements.
"""

from __future__ import annotations

import gc
import json
import time

CALIBRATION_STORES = 300  # dict stores per calibration loop, about 15 us at full speed on a 2.0 GHz Xeon vCPU


def calibrate() -> float:
    """Seconds for the calibration loop, the faster of two tries."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        d = {}
        for i in range(CALIBRATION_STORES):
            d[i & 63] = i
        best = min(best, time.perf_counter() - t)
    return best


class Clock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (CLOCK_MONOTONIC stamp, calibrate())
        gc.callbacks.append(self._on_gc)
        self.mark()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.mark()

    def mark(self) -> float:
        now = time.monotonic()
        self.samples.append((now, calibrate()))
        return now

    def stop(self) -> list[tuple[float, float]]:
        """Stop sampling; returns the samples so far."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        return self.samples

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.stop(), f)
