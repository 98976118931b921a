"""In-memory span tracer that wraps safeset's public functions from outside.

Each wrapped callable is replaced where its caller looks it up (a module
global or a class attribute), so the library itself is unchanged. A span
records its name, start, end, parent span id and the id of the trace it
belongs to (one trace per setup repeat or operation). Counters are plain
per-trace integers bumped by the same wrappers. Nothing is written until
the run ends.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.active = False
        self.trace_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {
                "id": sid,
                "parent": parent,
                "trace": self.trace_id,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
            }
        )
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (top was {popped})")

    def count(self, name: str, n: int = 1) -> None:
        self.counters[self.trace_id][name] += int(n)

    @contextmanager
    def span(self, name: str):
        """Context manager form, for spans the benchmark opens itself."""
        if not self.active:
            yield
            return
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    # -- patching --------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        span: str | None,
        on_return: Callable[["Tracer", tuple, dict, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``span`` None records no span, only what ``on_return`` counts.
        An attribute the owner does not define is reported as missing and
        left alone, so a later refactor that drops it degrades the affected
        metrics to 0 instead of breaking the run.
        """
        namespace = vars(owner)
        if attr not in namespace:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        orig = namespace[attr]
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            sid = tracer.open(span) if span is not None else None
            try:
                result = orig(*args, **kwargs)
            finally:
                if sid is not None:
                    tracer.close(sid)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def trace_spans(self, trace_id: str) -> list[dict]:
        return [s for s in self.spans if s["trace"] == trace_id]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": {k: dict(v) for k, v in self.counters.items()},
                    "missing": self.missing,
                },
                fh,
            )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its direct children.

    Spans come from one thread and close in stack order, so siblings never
    overlap and the children's summed duration is the interval they cover.
    """
    child_cover: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_cover[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_cover[s["id"]] for s in spans}


def has_ancestor(spans_by_id: dict[int, dict], span: dict, prefix: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        p = spans_by_id[parent]
        if p["name"].startswith(prefix):
            return True
        parent = p["parent"]
    return False
