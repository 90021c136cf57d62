"""CPU-speed samples taken while a workload runs.

On a shared host the speed of one CPU changes by a third or more for
seconds to minutes at a time, as other tenants come and go.  A timing
that is compared between two commits measured at different times then
says more about the host than about the program.  The benchmark
therefore runs a fixed reference kernel every `INTERVAL` seconds while
it times the workload, and reports each timing rescaled by
``REFERENCE_S / median kernel time`` over the samples taken around it:
seconds on a CPU as fast as the reference machine.  The kernel is the
benchmark's own code and never calls spinsim, so it costs the same on
every commit.

A kernel run is timed from inside a SIGALRM handler; the handler's time
is excluded from `Sampler.clock`, which jobs are timed with.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.2
# a job is rescaled by the samples taken from MARGIN seconds before it
# starts to MARGIN seconds after it ends, and by at least LEAST samples
MARGIN = 1.0
LEAST = 5
# median kernel time on the reference machine: a 2-vCPU Xeon VM with
# Python 3.11
REFERENCE_S = 0.0025

# numpy float64 scalars, so each comparison goes through numpy's scalar
# code as much of spinsim's Python-level arithmetic does
_FLOATS = list(np.random.default_rng(12345).normal(size=10000))


def kernel() -> float:
    """Fixed reference work: sort 10000 numpy scalars.  Of the kernels
    tried (a Python/numpy/BLAS mix, a dense model of a small spin system,
    sorts of 10000 and 40000 scalars), the two sorts followed the host's
    speed changes most closely on every workload, and this one costs a
    quarter as much.  Over consecutive 4-s bigspin passes, the pass time
    varied 0.26 (quartile spread over median) as measured and 0.07 once
    rescaled."""
    return sum(sorted(_FLOATS)[::7])


def kernel_seconds(repeats: int) -> float:
    """Median time of `repeats` kernel runs after three untimed ones."""
    for _ in range(3):
        kernel()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Runs the kernel every INTERVAL seconds between `start` and `stop`.

    `clock` is `time.perf_counter` minus the time spent in the handler,
    so a job timed with it excludes the samples taken during it.
    """

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples: list[float] = []
        self.times: list[float] = []        # perf_counter at each sample
        self.stolen = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.times.append(start)
        self.stolen += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def start(self) -> None:
        self._handler(None, None)       # so that even a short pass has one
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Reference speed over the speed seen: multiply a timing by this.

        With `start` and `end` (perf_counter times), only the samples near
        that interval count: the speed changes within a run too."""
        if not self.samples:
            raise RuntimeError("no speed samples were taken")
        if start is None:
            return REFERENCE_S / statistics.median(self.samples)
        near = [s for t, s in zip(self.times, self.samples)
                if start - MARGIN <= t <= end + MARGIN]
        if len(near) < LEAST:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)), key=lambda k: abs(self.times[k] - mid))
            near = [self.samples[k] for k in order[:LEAST]]
        return REFERENCE_S / statistics.median(near)
