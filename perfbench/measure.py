"""The benchmark's own arithmetic: percentiles, spans and self time,
machine-speed calibration, garbage-collector time and peak memory."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9)

#: Duration of one calibration probe at the reference machine speed, ns.
#: Timings are reported as if the machine ran at that speed.
CALIB_REF_NS = 2_000_000


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples, in
    exact arithmetic so that 99.9% of 10000 is rank 9990."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(ordered: list, p: float):
    """Nearest-rank percentile of an ascending, non-empty list."""
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples, beyond: int = 10):
    """The highest of TAIL_LEVELS that still has at least ``beyond``
    samples above its rank, as (level, value, sample count); None when
    even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in reversed(TAIL_LEVELS):
        if n - _rank(level, n) >= beyond:
            return level, percentile(ordered, level), n
    return None


def covered(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# A fixed pure-Python job, kept as source so that CLI children run the
# very same code. Its mix of exact rational sums, small objects, dict
# updates and strings follows the program's own work, so that it slows
# down as the program does when the machine is busy. It imports only
# modules the program imports too.
PROBE_SOURCE = """
from math import gcd as _gcd
from time import perf_counter_ns as _perf_counter_ns


class _Ratio:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = _gcd(n, d)
        self.n = n // g
        self.d = d // g

    def add(self, other):
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)


def calibration_probe():
    \"\"\"Wall time in ns of the fixed job.\"\"\"
    t0 = _perf_counter_ns()
    acc = _Ratio(0, 1)
    table = {}
    for i in range(1, 1000):
        acc = acc.add(_Ratio(i % 7 + 1, i % 97 + 1))
        if acc.d > 10**30:
            acc = _Ratio(acc.n % 1000003, 1)
        table[i & 63] = (acc.n & 0xFFFF, "s%d" % i)
    return _perf_counter_ns() - t0
"""
_probe_namespace: dict = {}
exec(PROBE_SOURCE, _probe_namespace)
calibration_probe = _probe_namespace["calibration_probe"]


def machine_speed() -> int:
    """The probe time at the machine's current speed: the fastest of
    three probes, so a stray interrupt does not count."""
    return min(calibration_probe() for _ in range(3))


def probes_around(probes: list, times: list, k: int, window_s: float):
    """Median of the probes taken from ``window_s`` before probe ``k`` to
    ``window_s`` after probe ``k + 1``; ``times`` are the probes' ascending
    times in s."""
    lo = bisect_left(times, times[k] - window_s)
    hi = bisect_right(times, times[k + 1] + window_s)
    return statistics.median(probes[lo:hi])


def at_reference_speed(ns: float, probe_ns: float) -> float:
    """Scales a time measured while probes took ``probe_ns`` to the
    reference speed."""
    return ns * CALIB_REF_NS / probe_ns


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end")

    def __init__(self, id, parent, op, name, start):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start


class Tracer:
    """Records a span around each call the benchmark makes into the
    program. Spans are kept in memory until ``write``; ``op`` groups the
    spans of one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name,
                    time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def busy_ns(self, *names: str) -> int:
        """Summed wall time of the spans with any of ``names``."""
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def summary(self) -> dict:
        """Per span name: calls, busy (summed duration) and self time
        (duration minus the part covered by child spans), in seconds."""
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0})
            dur = s.end - s.start
            row["calls"] += 1
            row["busy_s"] += dur / 1e9
            row["self_s"] += (dur - covered(s.start, s.end,
                                            children.get(s.id, ()))) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent,
                                     "op": s.op, "name": s.name,
                                     "start_ns": s.start, "end_ns": s.end})
                         + "\n")


class NullTracer:
    """Calls straight through; used for the untraced runs."""

    op = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class GcClock:
    """Wall time and count of garbage collections while started."""

    def __init__(self):
        self.ns = 0
        self.collections = 0
        self._t0 = 0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size in MB, of this process or of its largest
    waited-for child (Linux reports ru_maxrss in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024
