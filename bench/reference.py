"""Host-speed reference: a fixed piece of pure-Python work timed during the requests.

On a shared host the speed of a core flips by up to 2x within a second (as when
another tenant's load on a shared physical core comes and goes) and drifts by
20-40% over a minute or two, so the raw time of the same request list varies
that much from run to run.  A worker therefore also times ``chunk()`` on the
same core while each request runs: a ``Sampler`` runs one chunk from a timer
signal every ``INTERVAL_S`` of wall time, between the program's bytecodes, and
the worker times a few more chunks between requests.  ``chunk()`` does the kind
of work the program does (a tanh-sinh sweep of a beta-type integrand:
interpreted float arithmetic, ``math`` calls and loop overhead), but it is
frozen here in the benchmark and imports nothing from ``pqmathieu``, so no
change to the program can move it.

``speed_factor`` is the median chunk time over ``NOMINAL_S``: above 1 the host
was slower than nominal.  run.py divides each request's time (less the time its
samples took) by the factor of the chunks timed during and right around it,
which gives the time at nominal speed.  A change that makes the program slower
or faster moves the nominal times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# median chunk() time, sampled during requests, on a 2-core 2.1 GHz Xeon host
# (CPython 3.11); only a scale: a nominal time is the raw time times
# NOMINAL_S / the measured median
NOMINAL_S = 0.2e-3
# wall time between two samples while a request runs (the samples add ~2%)
INTERVAL_S = 0.01


def chunk() -> float:
    """A fixed tanh-sinh sweep of x^-0.3 (1-x)^0.5 exp(-0.5/x - 0.5/(1-x))."""
    s = 0.0
    for k in range(-100, 101):
        t = k / 64.0
        u = 0.5 * math.pi * math.sinh(t)
        x = 0.5 * (1.0 + math.tanh(u))
        if 0.0 < x < 1.0:
            w = 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
            s += w * x ** -0.3 * (1.0 - x) ** 0.5 * math.exp(-0.5 / x - 0.5 / (1.0 - x))
    return s


def time_chunks(n: int) -> list[float]:
    """Seconds taken by each of ``n`` consecutive chunk() calls."""
    out = []
    clock = time.perf_counter
    for _ in range(n):
        t0 = clock()
        chunk()
        out.append(clock() - t0)
    return out


def speed_factor(chunk_times: list[float]) -> float:
    return statistics.median(chunk_times) / NOMINAL_S


class Sampler:
    """Times one chunk() every INTERVAL_S of wall time between start() and
    stop(), from a SIGALRM handler.  ``samples`` holds the chunk times since
    start() and ``spent`` their sum, which the caller takes off its own timing."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
