"""Host-speed reference: a fixed pure-Python loop timed next to the program.

The benchmark's host is a share of a busy machine whose speed drifts by
tens of percent over seconds to minutes, and the program slows with it.
Every timed stretch of the program is therefore bracketed by this loop,
and the end-to-end timings are reported as

    adjusted seconds = measured seconds * REF_SECONDS / reference seconds

where the reference seconds are the mean of the loop's times taken around
the measured stretches: the time the run would have taken had the host
run the loop in ``REF_SECONDS``. The loop is benchmark code and never
changes with the program, so a slower program still reads slower; a
slower host does not.
The raw, unadjusted timings are kept beside the adjusted ones in the
report and the result record.
"""

from __future__ import annotations

import time

# The loop's time on the host the benchmark was written on (a 2-vCPU
# Intel Xeon share) when that host was quiet, so adjusted figures read as
# seconds on that host.
REF_SECONDS = 0.0055
LOOP_ITERATIONS = 100_000
REPEATS = 4


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


def reference_seconds() -> float:
    """The mean time of a few back-to-back runs of the reference loop.

    The mean, not the fastest run: the host switches between fast and
    slow spells, and the program pays for both."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _loop()
    return (time.perf_counter() - start) / REPEATS


def adjust(seconds: float, reference: float) -> float:
    """``seconds`` at the reference host speed, given the mean reference
    loop time measured around them."""
    return seconds * REF_SECONDS / reference
