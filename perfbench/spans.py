"""In-memory span recording, self time and timing summaries.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list (-1 at top level) and ``attrs`` is an
optional dict of counts the wrapper read off the call's result.  Spans are
kept in memory and written once, when the traced process ends.
"""

from __future__ import annotations

import json
import math
import time


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(len(self.spans) - 1)

    def close(self, attrs=None):
        span = self.spans[self._stack.pop()]
        span[2] = self.clock()
        span[4] = attrs

    def wrap(self, name, fn, attrs_of=None):
        """``fn`` inside a span; ``attrs_of(result)`` gives its attrs."""

        def traced(*args, **kwargs):
            self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result)
                return result
            finally:
                self.close(attrs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Per span: its duration minus its direct children's durations.  The
    tracer is a single-threaded stack, so children never overlap and never
    outlast their parent."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Percentiles considered for a tail figure, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail_level(n, beyond=10):
    """Highest percentile in TAIL_LEVELS with at least ``beyond`` of ``n``
    samples above it, or None when there are too few samples for any."""
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= beyond - 1e-9:
            return level
    return None


def percentile(values, level):
    """Linear-interpolated percentile (the 'inclusive' rule of
    ``statistics.quantiles``)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
