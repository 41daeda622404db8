"""Spans around the benchmark's calls into owlfl.

Each wrapped call becomes a span: name ``<module>.<function>``, start, end,
parent span and op id.  Ops are spans too (``op.<kind>``), so a layer
call's parent is the op that caused it.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """Records spans when ``enabled``.  An op (a span with no parent) and
    everything under it is recorded only if ``sample`` is set when it
    starts, so a run can leave some ops untraced and compare."""

    def __init__(self):
        self.enabled = False
        self.sample = True
        self.recording = False   # whether the current or last op is traced
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._depth = 0
        self._op = -1

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, recorded as a span when tracing."""
        if self._depth == 0:
            self.recording = self.enabled and self.sample
            self._op += self.recording
        if not self.recording:
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._depth -= 1
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self._op)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """A span's duration minus the time its child spans cover."""
    children: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.end - s.start
    return {s.id: s.end - s.start - children.get(s.id, 0.0) for s in spans}
