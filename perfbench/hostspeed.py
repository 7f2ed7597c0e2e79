"""Host speed, measured by a fixed kernel run alongside the workload.

On a shared machine the speed of interpreted code drifts by a third and
more over minutes, as other tenants load the host; the same code measured
twenty minutes apart then reads 25% faster or slower.  The kernel below is
a fixed piece of interpreted work (a pure-Python loop and short numpy
array operations, the mix of the program's Python-level code) that does not
depend on the program.  It is timed right next to each timed part of a
run, outside it; the median of those kernel times divided by REFERENCE_S
is the host factor of that part, and the part's time divided by it reads
as on the host in its reference state.  A time the kernel tracks
(interpreter start-up, Python-bound operations) is steadier so divided
than as measured.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the kernel's median on the 2-vCPU machine that defined the benchmark; a
# fixed scale, so that normalized times stay close to seconds as measured
REFERENCE_S = 0.0095

_BASE = np.linspace(0.0, 1.0, 4000)


def kernel():
    s = 0
    for i in range(40_000):
        s += i * i
    v = _BASE.copy()
    for _ in range(300):
        v = np.roll(v, 1) * 1.0000001
    return s


def factor(samples):
    """Median kernel time over its reference: above 1 on a slow host."""
    return statistics.median(samples) / REFERENCE_S


class Sampler:
    """Kernel times, taken between the timed parts, and the time they took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, n):
        """Run the kernel n times; returns the n new times."""
        new = []
        t_start = perf_counter()
        for _ in range(n):
            t0 = perf_counter()
            kernel()
            new.append(perf_counter() - t0)
        self.spent += perf_counter() - t_start
        self.samples += new
        return new
