"""Host-speed calibration: the timings of a run scaled to a reference host.

The host's own speed is not steady: a fixed pure-Python loop pinned to
one CPU of the shared 2-vCPU host this was written on ran 0.7-1.4 times
its median speed over 30-second blocks (IQR 24% of the median), in
phases lasting from under a second to minutes.  So the timed phase is
cut into quarter-second slices with a calibration loop between them
(:func:`calibrate`), and every timing is scaled by
``REFERENCE_CALIBRATION_S / calibration`` of its slice: what it would
read on a host that runs the loop in exactly 2.5 ms.  On the shared
host, six 15-second runs of ``unique-serial`` that met host speeds from
0.9 to 1.2 times the reference read 14.7-19.9 requests per second
unscaled and 15.2-15.9 scaled.

The loop is the benchmark's own code, timed in the generator thread's
CPU seconds while no request is in flight, so the program cannot change
it, and a program that keeps the CPU busy between requests is still
charged for it in the requests' wall time.

This module imports nothing of the program, so the set-up timing can
start after a calibration.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

#: Steps of the calibration loop, and the CPU seconds it takes on the
#: reference host to whose speed timings are scaled.
CALIBRATION_STEPS = 3_000
REFERENCE_CALIBRATION_S = 0.0025

_KEYS = tuple(f"key-{i}" for i in range(64))


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b


def _weigh(point: _Point, weight: float) -> float:
    return point.a * weight + point.b


def _second(pair):
    return pair[1]


def _loop() -> float:
    totals = {}
    started = time.thread_time()
    for i in range(CALIBRATION_STEPS):
        key = _KEYS[i & 63]
        totals[key] = totals.get(key, 0.0) + _weigh(
            _Point(i * 0.5, i & 7), 0.25
        )
        if i & 63 == 63:
            sorted(totals.items(), key=_second)
    return time.thread_time() - started


def calibrate(repeats: int = 1) -> float:
    """CPU seconds this thread takes for a fixed pure-Python loop; the
    median over ``repeats`` passes.

    The loop does what interpreted middleware code does -- string-keyed
    dict updates, small objects, calls, attribute reads, a sort -- because
    a plain arithmetic loop slowed less than the workloads when the host
    did.  The garbage collector is off while it runs, so a collector
    setting of the program cannot change it, and only this thread's CPU
    time counts, so the program's own threads cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_loop() for _ in range(repeats))
    finally:
        if enabled:
            gc.enable()


@dataclass
class Slice:
    """One slice of the timed phase (seconds into it) and the host's speed
    around it."""

    start: float
    end: float
    before: float  # calibrations just before and just after the slice
    after: float

    @property
    def scale(self) -> float:
        """Factor taking this slice's timings to the reference host."""
        return REFERENCE_CALIBRATION_S / ((self.before + self.after) / 2)
