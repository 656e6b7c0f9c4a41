"""Host-speed reference: fixed work, independent of dprkit, timed next to each operation.

The 2-core machine this benchmark was tuned on shares its cores with other
tenants.  The same pure-Python loop runs up to 1.8 times slower for minutes
at a time, and wall times of identical operations drift with it: the medians
of ten runs of one workload spread by 34% of their median.  CPU time drifts
the same way, so it is the host's speed that changes, not our share of it.

The benchmark therefore times this kernel before every set-up and every
operation, and reports each time of a run multiplied by ``REF_S`` / (the
mean kernel time of the run): seconds on a host that runs the kernel in
``REF_S``.  A change to dprkit moves a scaled time exactly as it moves the
wall time, while the host's drift between runs cancels to first order.  One
factor per run, rather than one per operation, keeps the kernel's own
jitter out of the figures; the mean rather than the median, because the
kernel's times are often bimodal within a run and the operations follow
the average more closely than either mode.  The kernel mixes the two kinds of work the
operations do: interpreted Python (the coordinate-descent loop, CSV parsing)
and numpy passes over arrays larger than the caches (distance matrices,
sorting).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.05


class Reference:
    """Kernel timings of one run; ``scale`` converts the run's wall times."""

    def __init__(self) -> None:
        self._block = np.random.default_rng(0).random((1000, 1000))
        self.seconds: list[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(3):
            np.sort(self._block, axis=1)
        self.seconds.append(time.perf_counter() - t)

    @property
    def scale(self) -> float:
        return REF_S / statistics.fmean(self.seconds)
