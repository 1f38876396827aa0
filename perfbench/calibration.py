"""Machine-speed calibration of measured times.

The hosts this benchmark runs on share their cores: the same pure-Python
loop, timed back to back on one core, varies by more than ten percent
and drifts over seconds and minutes.  So the benchmark keeps its
processes on one core and samples that core's speed with a probe, a
fixed pure-Python loop: once before and once after every timed interval,
and every SAMPLE_INTERVAL_S during it, from a thread of the process doing
the work (the probe holds the interpreter lock for about a millisecond,
so it runs between the work's own bytecodes, on the same core).  Times
are reported in reference seconds,

    calibrated = measured * (PROBE_NOMINAL_S / mean(probes)) ** SPEED_EXPONENT

The program slows more than the probe when the core is contended: on
the two-core host the bounds were set on, fitting the exponent over five
seeded runs of each workload put it at 1.5 for every workload, and it
cut the run-to-run spread of wall_s from 10-16% (raw) and 5-6% (exponent
1) to 2-4%.  Both constants define the unit of every reported time, so
changing either makes old and new numbers incomparable.  The raw times
are printed beside the calibrated ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PROBE_LOOPS = 10_000
PROBE_REPEATS = 3
# About the mean probe time on the host where the bounds were set.
PROBE_NOMINAL_S = 0.00075
SPEED_EXPONENT = 1.5
SAMPLE_INTERVAL_S = 0.1


def pin_to_one_core():
    """Keep this process and its children on one core, so that the probe
    measures the core the timed work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> float:
    """Best of a few timings of a fixed pure-Python loop."""
    best = float('inf')
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def calibrated(seconds: float, probes) -> float:
    speed = PROBE_NOMINAL_S / statistics.fmean(probes)
    return seconds * speed ** SPEED_EXPONENT


class Sampler:
    """Probes from a background thread while the main thread works.

    ``samples`` holds (perf_counter at the end of the probe, probe time).
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append((time.perf_counter(), probe()))

    def between(self, start: float, end: float) -> list:
        return [p for t, p in self.samples if start <= t <= end]

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
