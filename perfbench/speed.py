"""Machine-speed normalisation of pass times.

On a shared virtual machine the speed of a vCPU drifts by 20-60% from one
second to the next, and the drift is not shared between vCPUs. A fixed
pure-Python reference loop therefore runs every PERIOD_S from a SIGALRM
handler, on the same thread as the measured code, while a pass runs. A
pass's time in reference seconds is its work time (wall time minus the
samples) times the mean of REF_SAMPLE_S / sample duration over the samples
taken inside it: the time the pass would take at the reference speed.

The reference loop is part of the benchmark, not of the toolchain, so a
change to the toolchain moves the numerator only.
"""
from __future__ import annotations

import signal
import time
from array import array

PERIOD_S = 0.02
SETUP_PERIOD_S = 0.005  # set-up takes ~0.15 s, so sample it more often
# One reference sample counts as this many seconds: about its duration on
# the reference machine (2-vCPU Intel Xeon VM, CPython 3.11.7).
REF_SAMPLE_S = 0.00055


def reference_loop(n: int = 1500) -> int:
    d: dict = {}
    for i in range(n):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        t = (k, i, str(k))
    return len(d) + len(t)


class SpeedSampler:
    """Context manager: samples the reference loop every `period` seconds
    while active."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.start = array("d")
        self.dur = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.start.append(t0)
        self.dur.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(work seconds, reference seconds) of the interval [t0, t1]. An
        interval too short to hold a sample is scaled by every sample so far."""
        inside = [d for s, d in zip(self.start, self.dur) if t0 <= s and s + d <= t1]
        work = (t1 - t0) - sum(inside)
        return work, work * speed_factor(inside or self.dur)


def speed_factor(durations) -> float:
    """Reference seconds per second of work at the sampled speed."""
    if not durations:
        return 1.0
    return sum(REF_SAMPLE_S / d for d in durations) / len(durations)
