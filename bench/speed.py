"""The host's momentary speed, for timings that compare across runs.

The benchmark's host is a shared VM whose speed swings by up to 1.8x for
seconds at a time as its neighbours load the machine.  No run is long enough
to average that out, so each timed interval is paired with runs of a fixed
reference kernel right before and after it, and reported in reference
time::

    reference_s = seconds * REF_KERNEL_S / kernel_seconds

``REF_KERNEL_S`` is the kernel's time on an uncontended core of the 2-vCPU
x86-64 VM the benchmark was written on (Python 3.11), so a reference time
reads as the wall time that core would take.  Six 10 s runs of one
``collide-miss`` seed there completed 382 to 520 cases, while their
``certs_per_s`` in reference time stayed within 73.9 to 75.7.

The kernel is pure Python (integer arithmetic, Euclid's gcd, dict and tuple
traffic, as in the exact arithmetic of flatwander) and imports nothing, so
no change to flatwander can change it.  It runs with the cyclic garbage
collector off, so it does not pay for collections the case before it set
up.
"""

from __future__ import annotations

import gc
import statistics
import time

# the kernel's 5th-percentile time over 9,497 runs spread through 16
# benchmark runs on that VM (its median there was 0.53 ms)
REF_KERNEL_S = 3.3e-4


def kernel(n: int = 1500) -> int:
    table = {}
    acc, num, den = 0, 1, 3
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = (acc, i)
        if i % 25 == 0:
            num, den = (num * 7 - den) % 1000003 + 1, (den * 5 + i) % 999983 + 1
            a, b = num, den
            while b:
                a, b = b, a % b
            acc ^= a
    return acc + len(table)


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def kernel_median(runs: int = 5) -> float:
    return statistics.median(kernel_seconds() for _ in range(runs))


def to_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, in reference
    seconds."""
    return seconds * REF_KERNEL_S / kernel_s
