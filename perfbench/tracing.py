"""Span recording for the traced benchmark run.

Spans are recorded only at layer boundaries the benchmark itself crosses: a
root span per request, and one span per call the benchmark makes into a
public surfops function, wrapped with ``Tracer.wrap``.  Each span keeps its
name, start, end, parent span and request id in compact arrays, so a run
with about a million spans stays a few tens of MiB; ``write`` dumps them
when the run ends.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter


class NullTracer:
    """Tracing off: wrapped functions are returned unchanged."""

    enabled = False

    def wrap(self, name, fn, count=None):
        return fn

    def request(self, rid, kind, fn):
        return fn()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._rid = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.req.append(self._rid)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(result, *args)`` returns counter increments."""
        nid = self._id(name)
        stack, start, end, counters = self._stack, self.start, self.end, self.counters

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                counters.update(count(out, *args))
            return out

        return traced

    def request(self, rid, kind, fn):
        self._rid = rid
        return self.wrap(f"request.{kind}", fn)()

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, float]]:
        """Per span name over spans ``lo:hi``: (calls, summed self time in s)."""
        hi = len(self.name) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i - lo]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        """One JSON header line with the name table, then one CSV line per span."""
        with open(path, "w") as fh:
            header = {"names": self.names, "columns": ["name", "parent", "request", "start", "end"]}
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.name)):
                fh.write(f"{self.name[i]},{self.parent[i]},{self.req[i]},{self.start[i]!r},{self.end[i]!r}\n")
