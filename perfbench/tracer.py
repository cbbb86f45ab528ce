"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into each layer by replacing attributes of
thermrom's modules and classes with timing wrappers for the duration of a
``with tracer.installed(install):`` block; every original attribute is put
back on exit, so untraced runs measure unpatched code. Nothing inside
``src/thermrom`` is instrumented.

A span's self time is its duration minus the durations of its direct child
spans. The program runs single threaded, so spans nest strictly. A call that
re-enters the layer it is already in (``full_load`` calling
``leading_load``, say) opens no new span: its time stays the caller's self
time and it is not counted as a second entry into the layer.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict


class Tracer:
    """Per-name call counts, total and self times, plus free counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []  # [name, start, time covered by direct children]
        self._patches = []  # (owner, attribute, original object)

    def reset(self):
        """Forget recorded figures; installed wrappers stay installed."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        for table in (self.calls, self.total, self.self_time, self.counters):
            table.clear()

    @contextlib.contextmanager
    def span(self, name):
        if self._stack and self._stack[-1][0] == name:
            yield
            return
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame[1]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def wrap(self, owner, attribute, name, before=None, after=None):
        """Replace ``owner.attribute`` with a wrapper that records a span.

        ``name`` is a string or ``name(args, kwargs) -> str``. ``before`` is
        called with ``(args, kwargs)`` inside the span before the original,
        ``after`` with ``(args, kwargs, result)`` after it returns.
        """
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label):
                if before is not None:
                    before(args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self, install):
        """Run ``install(self)`` to wrap targets; restore them on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()


# Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values, min_beyond=10, ladder=TAIL_LADDER):
    """Highest percentile of ``ladder`` with at least ``min_beyond`` samples
    beyond it, as ``(pct, value, sample_count)``.

    Percentiles are nearest-rank; the samples beyond one are those ranked
    above it. When no percentile of the ladder qualifies, the median is
    returned. An empty sample gives ``(0.0, 0.0, 0)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    for pct in ladder:
        rank = max(1, math.ceil(round(pct * 10) * n / 1000))  # exact for 0.1% steps
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return 50.0, ordered[math.ceil(n / 2) - 1], n
