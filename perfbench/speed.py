"""Machine-speed calibration for the benchmark's timings.

On a machine whose cores are shared with other tenants the same CPU-bound
Python code can run 1.5x slower from one second to the next, and the speed
seen on one core says nothing about another.  Every timing the benchmark
reports is therefore normalized by a fixed pure-Python probe timed on the
same thread, interleaved with the measured work:

    normalized = measured * REF_S * mean(1 / probe time)

that is, seconds on a machine on which one probe takes REF_S.  A faster
fistab lowers the normalized times in the same proportion as the raw ones.
"""

from __future__ import annotations

import signal
import time

REF_S = 0.0025


def probe() -> float:
    """Seconds taken by a fixed mix of dict, tuple, small- and big-integer
    work, the operations fistab's inner loops are made of."""
    t0 = time.perf_counter()
    table: dict = {}
    x, m = 3**150, 7**200
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
        x = (x * 1234567 + i) % m
    sorted(table.items())
    return time.perf_counter() - t0


def dict_probe() -> float:
    """Seconds taken by the dict, tuple and small-integer work of probe()
    alone, the probe for small in-process CLI calls.  On a shared 2-vCPU
    host the speed of big-integer arithmetic drifted apart from that of
    argument parsing and small reports: normalized by probe(), a pass over
    the request mix spread about twice as much from run to run; the heavy
    invocations, which do big-integer linear algebra, track probe() better."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
    sorted(table.items())
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns a time measured while the probes took `samples`
    into reference seconds."""
    return REF_S * sum(1 / c for c in samples) / len(samples)


class Sampler:
    """Runs a probe every `interval` seconds from a SIGALRM handler, so the
    probes interleave with whatever the main thread is running."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        self.samples.append(probe())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())
