"""Host-speed sampling, to read item times at a fixed reference speed.

The benchmark's host is a few cores of a shared machine that switches
between speed regimes up to about 2x apart, on time scales from a fraction of
a second to tens of seconds; the same inputs then take very different wall
times from one run to the next.  A ``Sampler`` times a fixed pure-Python
probe right before and right after every item, and every INTERVAL_S while
the item runs (a SIGALRM handler; Python runs it between bytecodes of the
library's own code).  An item's time at reference speed is its wall time,
less the time its probes took, times REF_PROBE_S and the mean reciprocal
probe time it met.  The probe is interpreter-bound like the library, so the
scale follows the host and not the program: a change that makes the
library slower or faster moves the scaled time by the same factor.
"""
from __future__ import annotations

import signal
import statistics
from itertools import combinations
from time import perf_counter

PROBE_STEPS = 120
# the probe's time in this host's fast regime (2-core host, Python 3.11);
# scaled times are seconds at that speed
REF_PROBE_S = 0.00035
INTERVAL_S = 0.04


def _mul_add(a: float, b: float) -> float:
    return a * b + 1.0


def probe() -> float:
    """A fixed mix of what the library's inner loops do: tuple-keyed dict
    updates, modular integer arithmetic, float arithmetic through function
    calls, small sorts.  It tracks the host's speed over the library's work
    better than a plain integer loop."""
    t0 = perf_counter()
    counts: dict = {}
    acc = 0.0
    r = 0
    v = [1.0] * 8
    for i in range(PROBE_STEPS):
        for c in combinations((1, 2, 3, 4, 5), 2):
            counts[c] = (counts.get(c, 0) + i) % 65521
        for j in range(8):
            v[j] = v[j] * 0.999 + _mul_add(acc, 0.5) * 1e-3
        acc = v[i & 7]
        r ^= (i * 2654435761) % 1_000_003
        sorted((r & 255, i & 255, (r >> 8) & 255))
    return perf_counter() - t0


def speed(probes: list[float]) -> float:
    """Mean of the reciprocal probe times.  The probes are spread evenly in
    time, so this weights each regime by the time spent in it; a probe
    slowed by an interrupt weighs little."""
    return statistics.fmean(1.0 / p for p in probes)


class Sampler:
    """Times items at reference speed.  With ``interval=None`` it probes
    only before and after each item, so that no probe runs inside a traced
    span."""

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self._samples: list[float] = []
        self._spent = 0.0   # seconds inside the signal handler

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        self._samples.append(probe())
        self._spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if self.interval:
            signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result or exception, wall s, scaled s).

        The wall time excludes the handler's probes; the scaled time is
        the wall time at reference speed."""
        before = probe()
        n0, spent0 = len(self._samples), self._spent
        t0 = perf_counter()
        try:
            out = fn(*args)
        except (Exception, SystemExit) as exc:  # the caller counts it as failed
            out = exc
        t = perf_counter() - t0
        wall = t - (self._spent - spent0)
        inside = self._samples[n0:]
        after = probe()
        return out, wall, wall * REF_PROBE_S * speed([before, *inside, after])

