"""Gauging the host's speed while an instance runs.

On a small shared host the CPU runs the same code up to about 1.5x slower
for stretches of a few seconds to minutes, so raw times of identical work
spread far wider than any useful regression bound.  ``SpeedGauge`` samples
a small fixed reference computation every 25 ms while an
instance runs (from a ``SIGALRM`` handler, so the samples land inside the
instance, where the speed changes happen), and the benchmark scales the
instance's time by the mean speed it saw.

The reference uses only the standard library, so no change to ``cvarmdp``
changes it.  It is exact ``Fraction`` elimination, the kind of work that
dominates the library's LP and evaluation layers.  Of the references tried
it slowed down most like the library: instance time went as the reference's
speed to the power -0.9 to -1.15, where an integer loop gave -1.2 to -1.6.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction as F
from time import perf_counter

# Median time of one ``sample()`` on the host the baseline was measured on
# (2-vCPU Xeon at 2.1 GHz, Python 3.11.7).  A normalised time is "seconds
# on a host where a sample takes this long".
SAMPLE_SECONDS = 0.0024
PERIOD_SECONDS = 0.025  # one sample per period: about 10 % of the run

_N = 11
_rng = random.Random(20180508)
_MATRIX = [[F(_rng.randint(1, 9), _rng.randint(1, 9)) for _ in range(_N)] for _ in range(_N)]


def sample() -> float:
    """Seconds one run of the reference computation takes now."""
    t0 = perf_counter()
    m = [row[:] for row in _MATRIX]
    for k in range(_N):
        pivot = m[k][k]
        for i in range(k + 1, _N):
            f = m[i][k] / pivot
            for j in range(k, _N):
                m[i][j] -= f * m[k][j]
    return perf_counter() - t0


class SpeedGauge:
    """Samples the reference at the start, every period, and at the end.

    ``stolen`` is the time the samples took, which the caller subtracts from
    what it timed; ``speed`` is the mean of ``SAMPLE_SECONDS`` over each
    sample's time, below 1 when the host is slower than the baseline's.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.stolen = 0.0

    def _sample(self) -> None:
        t = sample()
        self.samples.append(t)
        self.stolen += t

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_SECONDS)

    def __enter__(self) -> "SpeedGauge":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_SECONDS)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def speed(self) -> float:
        return statistics.fmean(SAMPLE_SECONDS / t for t in self.samples)
