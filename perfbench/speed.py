"""The machine's speed during a run, read from a fixed pure-Python loop.

The benchmark runs on a few virtual CPUs of a shared host.  The speed of
pure-Python work there drifts by a quarter or more over minutes, as other
guests load the host, so that whole runs of the same code are slow
together.  A run times this loop next to its work (before each op, and
before each set-up sample) and reports the times of pure-Python work
scaled to a machine on which the loop takes REFERENCE_S:

    scaled = measured * REFERENCE_S / loop time

The loop runs no ptspec code, so a change to ptspec moves the scaled times
exactly as it moves the measured ones.  The record keeps both.
"""

import statistics
import time

LOOP = 100_000
# The loop's median time on the 2-vCPU Xeon virtual machine the first
# baseline was taken on.
REFERENCE_S = 0.008


def reference_s() -> float:
    """Seconds this process takes for the fixed loop now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    return time.perf_counter() - t0


def factor(samples) -> float:
    """The scale from measured to reference seconds for loop times ``samples``."""
    return REFERENCE_S / statistics.median(samples)
