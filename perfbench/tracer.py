"""In-memory span tracer that wraps module-level functions from outside.

A wrapped function records one span per call (name, start, end, parent
span) or, for count-only targets, just bumps a counter. An observer may
look at the call's arguments and result to record counts; it runs after
the span closes and its cost lands in the caller's self time, so observers
only keep references or do O(1) work. unwrap_all() puts every original
function back, whatever happened in between.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self.wrapped: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, module, attr: str, span: str | None, observe=None) -> bool:
        """Replace module.attr by a recording wrapper; False if it is gone.

        span=None makes a count-only wrapper (counter "<module>.<attr>.calls")
        for functions too hot for a span per call.
        """
        orig = getattr(module, attr, _MISSING)
        target = f"{module.__name__}.{attr}"
        if orig is _MISSING or not callable(orig):
            self.missing.append(target)
            return False
        tracer = self

        if span is None:
            key = f"{target}.calls"

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                tracer.counts[key] += 1
                return orig(*args, **kwargs)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                sid = tracer.open(span)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer.close(sid)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped_by_tracer__ = True
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))
        self.wrapped.append(target)
        return True

    def unwrap_all(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        sid = len(self.spans) - 1
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        popped = self._open.pop()
        if popped != sid:
            raise RuntimeError("spans closed out of order")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children.

        Calls run on one thread, so children of a span never overlap and
        their summed durations are the part of the span they cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[sid]
        return dict(out)

    def span_calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def covered(self) -> float:
        """Wall time inside any top-level span (equals the sum of self times)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "wrapped": list(self.wrapped),
            "missing": list(self.missing),
        }
