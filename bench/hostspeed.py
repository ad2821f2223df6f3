"""Rescaling measured times to a reference host speed.

The CPU speed of a small shared host drifts, in spells from seconds to
tens of minutes, and a short fixed calibration burst slows down with it.
While an interval is measured, a timer signal runs one burst every
PERIOD_S in the measured thread; EDGE_BURSTS more run right before and
right after the interval. The interval is reported as

    (wall time - time spent in bursts) * REFERENCE_S / (mean burst time)

that is, in seconds on a host where one burst takes REFERENCE_S. The
bursts are spread over the interval, so they sample the same slow and fast
spells the program ran through. They are the benchmark's own code with
fixed inputs, so a change to soapkit moves the rescaled time in the same
proportion as the wall time. WORKLOADS.md gives the measurements behind this.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
EDGE_BURSTS = 5
# burst time on the reference host (2 vCPUs, Intel Xeon, Python 3.11,
# numpy 2.4, one BLAS thread, in a fast spell; 4.2 ms in a slow one)
REFERENCE_S = 0.0026

_rng = np.random.default_rng(0)
_A = _rng.integers(0, 27, 64).astype(np.uint32)
_B = _rng.integers(0, 27, 4000).astype(np.uint32)
_X = _rng.standard_normal((32, 64))
_W = _rng.standard_normal((64, 256))


def burst() -> float:
    """Wall time of a fixed mix of the three kinds of work soapkit does:
    numpy row updates shaped like longest_common_substring, an interpreted
    dict-and-string loop like projection and irr, and small matrix
    products like the LSTM steps."""
    start = time.perf_counter()
    prev = np.zeros(_B.size, dtype=np.int32)
    cur = np.zeros(_B.size, dtype=np.int32)
    for a in _A:
        eq = _B == a
        np.add(prev[:-1], 1, out=cur[1:])
        cur[1:] *= eq[1:]
        int(cur.max())
        prev, cur = cur, prev
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    for _ in range(40):
        np.tanh(_X @ _W)
    return time.perf_counter() - start


class HostSpeed:
    """Samples host speed around and during measured intervals."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # time of the bursts the timer signal ran

    def clock(self) -> float:
        """perf_counter without the time spent in timer bursts."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        took = burst()
        self.samples.append(took)
        self.spent += took

    def _edge(self):
        self.samples.extend(burst() for _ in range(EDGE_BURSTS))

    @contextlib.contextmanager
    def measure(self, tick: bool = True):
        """Time the block. The yielded dict receives "wall" (seconds, timer
        bursts left out) and "scale" (the factor to the reference host).
        With tick=False no bursts run inside the block, for blocks that
        wait on a child process."""
        out = {}
        self._edge()
        first = len(self.samples) - EDGE_BURSTS
        old = signal.signal(signal.SIGALRM, self._tick) if tick else None
        if tick:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = self.clock()
        try:
            yield out
        finally:
            out["wall"] = self.clock() - start
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, old)
        self._edge()
        out["scale"] = REFERENCE_S / statistics.fmean(self.samples[first:])
