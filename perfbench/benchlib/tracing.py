"""In-memory spans recorded around calls into the program's layers.

The benchmark measures each layer from outside: it wraps public methods
of live objects (``model.forward_batch``, a child module's ``forward``,
``PreprocessCache.get``, ``ReplicaPool.submit``) per instance, so nothing
in the program changes.  A span is ``(name, start, end, parent, op)``;
spans stay in memory and are summarised when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children may overlap each other, so the
covered part is the length of the union of their intervals).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["Span", "Tracer", "covered_length", "self_times", "wrap_method"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end=None, parent=None, op=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self):
        return self.end - self.start

    def __repr__(self):
        return (f"Span({self.name!r}, {self.start:.6f}, {self.end}, "
                f"parent={self.parent}, op={self.op})")


def covered_length(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Self time of every span: duration minus its children's coverage.

    ``spans`` is a list of :class:`Span` whose ``parent`` is an index
    into the same list (or ``None``).  Child intervals are clipped to
    the parent's interval before their union is taken.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(index, ())]
        result.append(span.duration - covered_length(clipped))
    return result


class Tracer:
    """Collects spans; parents come from a per-thread stack of open spans.

    ``enabled`` may be toggled while the run goes on (the traced run
    alternates traced and untraced windows to measure the overhead);
    a disabled tracer records nothing and wrappers call straight
    through.
    """

    def __init__(self, clock=perf_counter, enabled=True):
        self.clock = clock
        self.enabled = enabled
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, span):
        if span.op is None and span.parent is not None:
            span.op = self.spans[span.parent].op
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def open(self, name, op=None, start=None):
        """Open a span on this thread's stack; returns its index.  Its
        parent is the innermost open span of the thread, whose op id it
        inherits unless ``op`` is given."""
        stack = self._stack()
        index = self._add(Span(name,
                               self.clock() if start is None else start,
                               parent=stack[-1] if stack else None, op=op))
        stack.append(index)
        return index

    def close(self, index, end=None):
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        self.spans[index].end = self.clock() if end is None else end

    def record(self, name, start, end, parent=None, op=None):
        """Add a finished span (for intervals measured across events)."""
        return self._add(Span(name, start, end, parent=parent, op=op))

    def summary(self):
        """``{name: (count, total_seconds, total_self_seconds)}``."""
        open_spans = [s.name for s in self.spans if s.end is None]
        if open_spans:
            raise RuntimeError(f"spans still open: {sorted(set(open_spans))}")
        out = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            count, total, total_self = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (count + 1, total + span.duration,
                              total_self + own)
        return out


def wrap_method(obj, attribute, tracer, name):
    """Shadow ``obj.attribute`` with a per-instance wrapper that records
    a span named ``name`` around every call while ``tracer.enabled``."""
    inner = getattr(obj, attribute)

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return inner(*args, **kwargs)
        index = tracer.open(name)
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.close(index)

    object.__setattr__(obj, attribute, wrapper)
    return inner
