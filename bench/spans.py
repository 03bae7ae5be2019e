"""Spans recorded around the program's public functions, from outside it.

``Tracer.wrap`` replaces a function or method on its owner with one that
records ``[id, name, start, end, parent id, segment, thread]`` for every
call.  Spans stay in memory until the run ends.  A function the program
no longer has is skipped, so it yields no span instead of failing the run.
"""
from __future__ import annotations

import itertools
import statistics
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = [next(tracer._ids), name, 0.0, 0.0, parent[0] if parent else None,
                    parent[5] if parent else None, threading.get_ident()]
            if on_call is not None:
                on_call(span, args, kwargs)
            stack.append(span)
            tracer.spans.append(span)
            span[2] = time.monotonic()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                stack.pop()
                if on_return is not None:
                    on_return(span)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def durations(spans: list[list], name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]


def self_times(spans: list[list], name: str, child_names) -> list[float]:
    """Each *name* span minus the time its direct children named in
    *child_names* cover."""
    children: dict[int, float] = {}
    for span in spans:
        if span[4] is not None and span[1] in child_names:
            children[span[4]] = children.get(span[4], 0.0) + span[3] - span[2]
    return [s[3] - s[2] - children.get(s[0], 0.0) for s in spans if s[1] == name]


def median(values, default=float("nan")) -> float:
    return statistics.median(values) if values else default


def peak_rss_kb() -> int:
    """This process's own resident high-water mark (``VmHWM``), in KiB.

    Unlike ``getrusage``'s ``ru_maxrss``, it belongs to the current address
    space and starts afresh at exec, so it never includes the memory of the
    benchmark process that spawned this one.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")
