"""Work measured in runs of a fixed reference kernel, not in seconds.

On a shared host the speed of one core drifts by up to 2x over minutes as
other tenants load the physical core, so raw seconds of the same job vary
more between runs than any useful regression bound.  `SpeedSampler` times a
small pure-Python reference kernel every `INTERVAL` seconds of wall time,
from a SIGALRM handler on the thread that runs the job, so the samples see
the same core at the same moments as the job.  `work(a, b)` is then the
number of reference-kernel runs the core could have done between a and b:
a job's cost in units of the kernel, which drifts far less than its
duration.  The kernel mixes multi-limb integer arithmetic with dict, tuple
and sort work, the two kinds of work graphoncalc's hot paths do; it imports
nothing from graphoncalc, so a change to graphoncalc cannot change it.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from array import array

INTERVAL = 0.1

_rng = random.Random(0)
_FACTORS = [_rng.getrandbits(230) | 1 for _ in range(8)]


def reference_kernel() -> int:
    x = 1
    for _ in range(30):
        for b in _FACTORS:
            x = (x * b) >> 200
    d: dict = {}
    for i in range(700):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        d[key] = d.get(key, 0) + i
    return x + len(sorted(d.items()))


class SpeedSampler:
    """Samples the speed of the current core while a job runs."""

    def __init__(self):
        self.at = array("d")     # end time of each kernel run
        self.cost = array("d")   # its duration
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.cost.append(t1 - t0)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def work(self, a: float, b: float) -> float:
        """Kernel runs that fit in [a, b] at the sampled speed, minus the
        runs the sampler itself made in that interval.  Between two samples
        the speed is the mean of their speeds; outside the sampled span it
        is the nearest sample's."""
        at, cost = self.at, self.cost
        total = 0.0
        i = bisect.bisect_left(at, a)
        t = a
        while t < b:
            if i == 0:
                speed, until = 1 / cost[0], min(b, at[0])
            elif i == len(at):
                speed, until = 1 / cost[-1], b
            else:
                speed = (1 / cost[i - 1] + 1 / cost[i]) / 2
                until = min(b, at[i])
            total += (until - t) * speed
            t = until
            i += 1
        own = bisect.bisect_right(at, b) - bisect.bisect_left(at, a)
        return max(total - own, 0.0)
