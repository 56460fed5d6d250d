"""Host-speed correction: a fixed reference kernel run on a timer.

The shared host this benchmark was tuned on runs a thread at one of two
speeds about 1.6x apart. The fast and slow stretches last milliseconds, and
the share of slow time drifts over seconds to minutes, so the same `full`
training took 62 s in one run and 93 s in another. CPU time moves with wall
time, and the two vCPUs drift independently, so neither CPU time nor a probe
on the other core can tell the host's speed apart from the program's.

While a ``HostSpeed`` is installed, a SIGALRM interval timer runs a fixed
reference kernel every ``INTERVAL_S`` in the measured thread itself, between
two bytecodes of whatever the program is doing, and records how long the
kernel took. The kernel is small-matrix numpy work in a Python loop, the
same mix as the autodiff graphs cpsdetect builds; over 3 s trainings the
mean time of a 25-step variant correlated at 0.96 with the training's wall
time.

A timed section is then reported in corrected seconds:

    corrected = (wall time - time spent in probes) * REFERENCE_S / mean probe time

that is, the time the section would take on a host where the kernel takes
``REFERENCE_S``, about its median time on the tuning host. The program's own
work is the numerator; a change that makes it faster or slower moves the
corrected time by the same ratio. Probes cost about 1% of the thread's time,
and ``net_clock`` leaves that time out of every section.
"""
from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.01
# Median duration of ``kernel()`` on the tuning host (2-vCPU Intel Xeon VM at
# 2.0 GHz, Python 3.11, numpy 2.4): corrected seconds are seconds at this
# kernel speed.
REFERENCE_S = 100e-6
STEPS = 12
# A section shorter than this many probes borrows probes from around it.
MIN_PROBES = 20
# Probes longer than this many times their section's median are left out of
# the mean: see ``factor``.
OUTLIER = 4.0

_A = np.linspace(-1.0, 1.0, 12 * 16).reshape(12, 16)
_B = np.linspace(-0.5, 0.5, 16 * 16).reshape(16, 16) / 4.0


def kernel() -> None:
    """The fixed reference work: a chain of small matmuls and tanh."""
    x = _A
    for _ in range(STEPS):
        x = np.tanh(x @ _B) * 0.5 + _A


class HostSpeed:
    """Probe durations; ``install`` starts the timer."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        self.durations.append(duration)
        self.spent += duration

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer for the block, e.g. while a child process works."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def net_clock(self) -> float:
        """perf_counter less the time spent in probes so far."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        """A position in the probe record; ``factor`` takes two of them."""
        return len(self.durations)

    def factor(self, first: int, last: int) -> float:
        """Mean probe time between two marks over REFERENCE_S (1.0 = reference).

        A span holding fewer than MIN_PROBES probes is widened evenly on both
        sides, within the record, until it holds that many. Probes more than
        OUTLIER times the span's median are left out: during a `full`
        training about 1% of probes stall for 1-10 ms, at a rate that the
        short trainings and the scoring loop do not show, and in the mean
        they would outweigh the slow and fast stretches it is meant to track.
        """
        durations = self.durations
        if not durations:
            return 1.0
        missing = MIN_PROBES - (last - first)
        if missing > 0:
            first = max(0, first - (missing + 1) // 2)
            last = min(len(durations), max(last, first + MIN_PROBES))
            first = max(0, min(first, last - MIN_PROBES))
        span = np.asarray(durations[first:last])
        span = span[span <= OUTLIER * np.median(span)]
        return float(span.mean()) / REFERENCE_S

    def corrected(self, net_seconds: float, first: int, last: int) -> float:
        return net_seconds / self.factor(first, last)
