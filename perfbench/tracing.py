"""Spans recorded around the benchmark's calls into each stratinv layer.

Spans live in memory (name, start, end, parent, item) and are written out
when the run ends. Nothing here reaches inside the package: the chat wrapper
sits between the pipeline and whatever client it is handed.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from stratinv.chat import ChatClient, ChatTurnRequest
from stratinv.ooc import ADD_MARKER, LABEL_MARKER, OBFUSCATE_MARKER, REWRITE_MARKER, STRATIFIER_MARKER

def request_role(messages) -> str:
    """Pipeline role of a chat request, from the public prompt markers.

    ``messages`` is a sequence of (role, content) pairs; a three-message
    request is the format-reminder retry.
    """
    if len(messages) == 3:
        return "reminder"
    text = "\n".join(content for _role, content in messages)
    for marker, role in (
        (OBFUSCATE_MARKER, "obfuscate"), (ADD_MARKER, "add"), (REWRITE_MARKER, "rewrite"),
        (STRATIFIER_MARKER, "stratifier"), (LABEL_MARKER, "label"),
    ):
        if marker in text:
            return role
    return "unknown"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the parent is the innermost span open in the thread.

    A span opened on a thread with no open span of its own takes the main
    thread's innermost open span as parent, so work a pipeline hands to a
    pool still counts as that pipeline step's child.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, item: str | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = Span(name, time.perf_counter(), 0.0, parent, item, attrs or None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_seconds(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            covered, edge = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            total += s.seconds - covered
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                doc = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "item": s.item}
                if s.attrs:
                    doc.update(s.attrs)
                fh.write(json.dumps(doc, sort_keys=True) + "\n")


class TracedClient(ChatClient):
    """Times each completion of ``inner`` as a span named ``name`` that
    carries the request's role and digest."""

    def __init__(self, inner: ChatClient, tracer: Tracer, name: str):
        self.inner = inner
        self.tracer = tracer
        self.name = name

    def complete(self, request: ChatTurnRequest) -> str:
        attrs = {"role": request_role(request.messages), "digest": request.digest()}
        with self.tracer.span(self.name, **attrs):
            return self.inner.complete(request)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[rank - 1])

