"""Sampling how fast the machine runs while the workload runs.

On a shared host the speed of memory-heavy Python code flips between two
levels every few seconds, for reasons outside the process: a run of the
soundness suites took anywhere from 6 to 11 s. A 40 s run sees a random
share of slow time, so raw medians spread by 15-30% from run to run.

SpeedSampler runs a tiny fixed kernel from a SIGALRM handler every
INTERVAL seconds of wall time, in the middle of whatever request is
running. The kernel does the same kind of work as the package (tuple
trees, dict memo tables, recursion, allocation) but never touches it, so
its time moves with the machine and not with the code under test. The
mean of REF_S / kernel time over the samples taken during a request, or
nearest to it in time, estimates the machine's average
speed during a request, in units where the kernel takes REF_S; a time
multiplied by it reads in reference seconds. Time spent in the handler is
reported so that callers can take it out of their measurements.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL = 0.05
REF_S = 0.001
_NODES = 500


def kernel():
    rng = random.Random(0)
    nodes = [("p", i) for i in range(8)]
    for _ in range(_NODES):
        if rng.random() < 0.5:
            nodes.append(("&", rng.choice(nodes), rng.choice(nodes)))
        else:
            nodes.append(("~", rng.choice(nodes)))
    memo = {}

    def value(f):
        out = memo.get(f)
        if out is None:
            if f[0] == "p":
                out = f[1] & 1
            elif f[0] == "~":
                out = 1 - value(f[1])
            else:
                out = value(f[1]) & value(f[2])
            memo[f] = out
        return out

    for f in nodes:
        value(f)


class SpeedSampler:
    """Context manager: samples the kernel's time while it is active."""

    NEAREST = 4  # samples that stand in for a request too short to hold one

    def __init__(self):
        self.times = []  # when each sample ended
        self.speeds = []  # REF_S / kernel time of each sample
        self.spent = 0.0  # seconds spent inside the handler

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.speeds.append(REF_S / (end - start))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        # a few samples up front give the first requests neighbours on both sides
        for _ in range(self.NEAREST):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start, end):
        """Mean machine speed between two perf_counter() readings, 1.0 when
        the kernel takes REF_S: over the samples taken in between, or over
        the NEAREST samples in time when none was."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < 1:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            return statistics.fmean(self.speeds[i] for i in nearest[: self.NEAREST])
        return statistics.fmean(self.speeds[lo:hi])
