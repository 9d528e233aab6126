"""Machine-speed sampling, so unit times can be read at a fixed speed.

On a shared host the same unit of work can take twice as long from one
few seconds to the next, because neighbours slow the core down.  While
the units run, a wall-clock interval timer interrupts the process every
``INTERVAL`` seconds and times one short fixed ``probe`` (numpy and pure
Python; it calls nothing from skillseq, so no program change moves it).

A unit's *reference time* is its wall time with each stretch divided by
how slow the machine was then, relative to a probe that takes
``REF_PROBE_S``:  ``sum(dt * REF_PROBE_S / p)`` over the unit, where ``p``
is the median probe time of the samples around that stretch.  When the
host slows the program and the probe alike, wall time moves and reference
time does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05      # seconds between probes
SMOOTH = 5           # samples on each side in the local median
REF_PROBE_S = 1e-3   # the probe time that reference times are scaled to

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 80))
_W = _rng.standard_normal((16, 16, 5)) * 0.1


def probe():
    """A fixed ~1 ms mix of small numpy calls and interpreted Python,
    like the program's own: a 5-tap convolution, an ELU, a Python sum."""
    total = 0.0
    for _ in range(8):
        pad = np.pad(_X, ((0, 0), (2, 2)))
        taps = np.stack([pad[:, k:k + _X.shape[1]] for k in range(5)])
        y = np.einsum("oik,kit->ot", _W, taps)
        y = np.where(y > 0, y, np.exp(np.minimum(y, 0.0)) - 1.0)
        for v in y[0].tolist():
            total += v * v
    return total


class SpeedSampler:
    """Probe samples taken on SIGALRM between ``start()`` and ``stop()``."""

    def __init__(self):
        self.at = []          # probe start times (perf_counter)
        self.took = []        # probe durations, seconds
        self._local = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def local_probe(self, j):
        """Median probe time of the samples within SMOOTH of sample j."""
        if self._local is None:
            n = len(self.took)
            self._local = [statistics.median(self.took[max(0, i - SMOOTH):i + SMOOTH + 1])
                           for i in range(n)]
        return self._local[j]

    def reference_seconds(self, start, end):
        """Reference time of the stretch [start, end]: the stretch is cut at
        the midpoints between samples, each piece scaled by its nearest
        sample's local probe time."""
        if not self.at:
            raise RuntimeError("no speed samples were taken")
        j = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
        if j > 0 and start - self.at[j - 1] < self.at[j] - start:
            j -= 1
        total, t = 0.0, start
        while t < end:
            edge = end if j + 1 == len(self.at) else min(end, (self.at[j] + self.at[j + 1]) / 2)
            if edge > t:
                total += (edge - t) * REF_PROBE_S / self.local_probe(j)
                t = edge
            j += 1
        return total
