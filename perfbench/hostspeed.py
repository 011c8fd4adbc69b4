"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.8 times, in phases lasting from about a second to many minutes; process
CPU time slows just as much, so the cause is contention for the processor.
A raw time therefore says as much about the neighbours as about surfops.

A fixed pure-Python reference workload, which never touches surfops, is
timed every ``INTERVAL_S`` while requests run, from a ``SIGALRM`` handler, so
that it also samples the host inside a long request.  Each request's time,
less the time the handler took inside it, is scaled by ``REFERENCE_S`` over
the mean reference time sampled from ``WINDOW_S`` before the request to
``WINDOW_S`` after it: the result is the time the request would have taken
at the reference speed, the speed at which the reference workload takes
``REFERENCE_S``.  A change that makes surfops faster or slower moves the
scaled times as much as the raw ones; a change of host speed, which slows the
reference and the requests alike, cancels out.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# About the reference workload's commonest time on the machine the benchmark was sized on
# (2 vCPUs of an Intel Xeon under KVM, CPython 3.11), timed while the benchmark runs.  Scaled
# times are comparable with one another, not with raw times: there they came out at 0.5 to
# 0.8 of the raw times measured alongside.
REFERENCE_S = 0.0006
# How often the reference workload is timed, and how far before and after a request the
# samples that scale it reach.
INTERVAL_S = 0.02
WINDOW_S = 0.05


class _Item:
    __slots__ = ("key", "text")

    def __init__(self, key, text):
        self.key = key
        self.text = text


_ITEMS = [_Item(i, str(i)) for i in range(64)]


def reference_work(rounds: int = 400) -> int:
    """Object attribute reads, generators, tuples, frozenset hashing and keyed sorts.

    These are the operations surfops spends its time on; of the loops tried,
    this one tracked the host's swings most closely for `evaluate`, the
    parsers and the law checks alike.
    """
    acc = 0
    for i in range(rounds):
        window = tuple(x.text for x in _ITEMS[i & 31 : (i & 31) + 6])
        acc += hash(frozenset(window)) & 7
        acc += len(sorted(window, key=len)) + _ITEMS[i & 63].key
    return acc


def reference_time() -> float:
    """One timing of the reference workload, in seconds."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class Sampler:
    """Times the reference workload every ``INTERVAL_S`` while active; a context manager.

    ``spent`` is the handler's own running total, which callers subtract from
    the times they measure.  ``samples`` holds (time, reference time) pairs.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        ref = reference_time()
        self.samples.append((t0, ref))
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def scaled(self, spans: list[tuple[float, float, float]]) -> list[float]:
        """Each (start, end, time) span's time at the reference speed."""
        times = [t for t, _ in self.samples]
        prefix = [0.0]
        for _, ref in self.samples:
            prefix.append(prefix[-1] + ref)
        out = []
        for start, end, elapsed in spans:
            lo = min(bisect_left(times, start - WINDOW_S), len(times) - 1)
            hi = max(bisect_right(times, end + WINDOW_S), lo + 1)
            out.append(elapsed * REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out


def timed(fn):
    """``fn()``'s result and its time at the reference speed."""
    with Sampler() as sampler:
        spent = sampler.spent
        t0 = perf_counter()
        out = fn()
        t1 = perf_counter()
        spent = sampler.spent - spent
    return out, sampler.scaled([(t0, t1, t1 - t0 - spent)])[0]
