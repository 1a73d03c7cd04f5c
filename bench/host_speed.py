"""How fast the shared host runs while a spec is timed, to scale its time.

The benchmark's host is a few virtual cores of a shared machine.  Its speed
flips between a fast and a slow state every few seconds, by up to 40 %, as
the machine's other load comes and goes (README.md, "Spread between runs"),
and every wall time moves with it.  So around and during each timed call a
fixed pure-Python kernel is timed too, and the call's time is scaled to a
host on which that kernel takes `KERNEL_REF_S`: the time the program would
take at the baseline host's usual speed.  A change to the program moves the
scaled time as it moves the wall time; only the host's drift cancels.  A
change that slows the interpreter for all code, or keeps a second thread
busy, slows the kernel too and is partly hidden: read the wall times too.
"""
from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

KERNEL_REF_S = 0.00070  # the kernel's median time on the baseline host (README.md)
INTERVAL_S = 0.02  # wall time between kernel samples during a call
BRACKET = 5  # kernel samples just before and just after each call


def kernel_s() -> float:
    """Wall time of one fixed kernel: relax a 20 x 20 distance matrix, as APSP does."""
    t0 = perf_counter()
    n = 20
    d = [[(i * j) % 13 + 1 for j in range(n)] for i in range(n)]
    for k in range(n):
        dk = d[k]
        for row in d:
            dik = row[k]
            for j in range(n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    return perf_counter() - t0


class HostSpeed:
    """The kernel's samples over a run, and the calls they scale."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        self.samples.append(kernel_s())

    def timed(self, fn):
        """Call `fn()`; return its result, its wall time and that time scaled.

        The kernel runs `BRACKET` times just before and just after the call,
        and, from a SIGALRM timer, every `INTERVAL_S` of wall time while `fn`
        runs Python code in this thread.  The timer's samples' own time is
        taken out of the call's wall time; the scaled time is that wall time
        times `KERNEL_REF_S` over the median of all the call's samples.
        """
        first = len(self.samples)
        for _ in range(BRACKET):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed -= sum(self.samples[first + BRACKET:])
        for _ in range(BRACKET):
            self._sample()
        return result, elapsed, elapsed * KERNEL_REF_S / median(self.samples[first:])
