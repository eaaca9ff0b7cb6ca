"""Machine-speed reference for the benchmark's end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts within
seconds: run back to back for a minute and a half, the same pass at the same
seed took from 1.7 s to 3.1 s, in CPU time as much as in wall time, while the
host reported no steal time.  So every pass is timed together with a small fixed piece of
reference work that does not touch ``lie2``: ``Sampler`` runs
``reference()`` from a timer signal every ``INTERVAL_S`` while the pass runs,
and once before and once after it.  The time the samples took is taken out
of the pass's time.  The harmonic mean of the sample times is the reference's
time at the pass's average speed (sampling is uniform in time, so slow
stretches hold more samples, and the harmonic mean weights them back by the
work done in them).  A pass's time times ``REFERENCE_S`` over that mean is
the time the pass takes when the reference takes ``REFERENCE_S``.

The reference mixes what the engine spends its time on: exact ``Fraction``
and dict arithmetic, small numpy calls on 2x2 complex matrices, and einsum
over a 2x2 complex field of 10 000 samples.  It is fixed code, so a change
to the engine moves the scaled times as much as the raw ones; the raw times
are reported beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Median of 500 back-to-back reference runs on the host the benchmark was
# written on (Intel Xeon, 2 vCPUs, Python 3.11, numpy single-threaded).
REFERENCE_S = 0.0039
INTERVAL_S = 0.04
FIELD = np.random.default_rng(0).standard_normal((2, 2, 10_000)) + 0j


def reference() -> tuple[float, float]:
    """Run the reference work once; returns its (wall, CPU) seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    total, table = Fraction(0), {}
    for i in range(1, 500):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        table[i % 97, i % 5] = table.get((i % 97, i % 5), 0) + i * i
    m = np.eye(2, dtype=complex) * 0.5
    for _ in range(150):
        m = m @ m + 0.25
        m = m / np.abs(m).max()
    f = FIELD
    for _ in range(2):
        f = np.einsum("ijn,jkn->ikn", f, f)
        f = f / np.abs(f).max()
    return time.perf_counter() - t0, time.process_time() - c0


def settled_reference(runs: int = 15) -> float:
    """Median wall time of ``runs`` references after one warm-up run (for a
    fresh interpreter, whose first einsum call pays its own set-up)."""
    reference()
    return statistics.median(reference()[0] for _ in range(runs))


class Sampler:
    """``with Sampler() as s:`` samples the reference from SIGALRM every
    ``INTERVAL_S`` inside the block, and once on entry and on exit (outside
    the block's own time)."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.inside_wall = self.inside_cpu = 0.0
        self._previous = None

    def _sample(self) -> tuple[float, float]:
        wall, cpu = reference()
        self.wall.append(wall)
        self.cpu.append(cpu)
        return wall, cpu

    def _on_alarm(self, signum, frame) -> None:
        wall, cpu = self._sample()
        self.inside_wall += wall
        self.inside_cpu += cpu

    def __enter__(self) -> Sampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, wall: float, cpu: float) -> tuple[float, float, float, float]:
        """(scaled wall, scaled CPU, raw wall, raw CPU) of a block that took
        ``wall`` and ``cpu`` seconds, samples included."""
        wall -= self.inside_wall
        cpu -= self.inside_cpu
        return (wall * REFERENCE_S / statistics.harmonic_mean(self.wall),
                cpu * REFERENCE_S / statistics.harmonic_mean(self.cpu), wall, cpu)
