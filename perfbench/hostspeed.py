"""The host's current speed, from a fixed piece of pure-Python work.

The benchmark's host is shared: measured back to back, the same work can take
a third longer for seconds at a time, and the typical speed moves by as much
over minutes.  The benchmark therefore runs ``probe()`` a few times before
every operation it times and reports every time scaled to a host on which
the probe takes REFERENCE_S, using the median probe time of the whole run.
Over 4-second windows in one 80-second measurement on a shared 2-vCPU
virtual machine, the times of `bottleneck`, `newman_leq` and a small
enumeration with meet varied with coefficients of variation of 0.20 to 0.23,
and their ratios to the probe time by 0.07 to 0.09.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 1.5e-3  # probe time that defines the reporting scale


def probe() -> int:
    """About a millisecond of interpreter work: arithmetic, a loop, no memory."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def probe_seconds(count: int) -> list[float]:
    """``count`` back-to-back probe times."""
    times = []
    for _ in range(count):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return times


def scale(probe_times) -> float:
    """Factor that turns seconds measured next to these probes into reference seconds."""
    return REFERENCE_S / statistics.median(probe_times)
