"""Spans recorded by the benchmark around calls into each layer.

The spans live here, not in ``src/``: the benchmark times public calls
from outside (spans inside the program are ROADMAP item 3).  Each span has
a name, start, end, the span that caused it (``parent``) and a request id
shared by every span of one request.  Spans stay in memory and are written
as JSON lines when the run ends; ``StageRecorder`` events collected
through the program's public ``on_stage=`` hook are appended to the same
file as ``kind: "stage"`` records.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from stats import median

#: Ladder rungs, bottom first: each wraps the one before it.
LADDER_RUNGS = ("core.search", "api", "serve", "router")


class Tracer:
    """Collects spans when enabled; costs one attribute test when not."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.stages: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, request=None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "kind": "span",
                "id": span_id,
                "parent": parent,
                "request": request,
                "name": name,
                "start": start,
                "end": end,
            }
            with self._lock:
                self.spans.append(record)

    def add_stage_events(self, source: str, events) -> None:
        """Keep ``StageRecorder`` events (name, seconds, counters)."""
        for event in events:
            counters = {
                k: v for k, v in event.counters.items()
                if isinstance(v, (int, float, str, bool))
            }
            self.stages.append(
                {"kind": "stage", "source": source, "name": event.name,
                 "seconds": event.seconds, "counters": counters}
            )

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans + self.stages:
                handle.write(json.dumps(record) + "\n")


def ladder_self_times(records) -> dict[str, float]:
    """Per-rung self time in ms from ``ladder.<rung>`` spans.

    The same queries are issued one at a time at each depth; a rung's self
    time is its own p50 minus the p50 of the rung below, so the self times
    telescope to the top rung's p50 (``e2e``).
    """
    durations = defaultdict(list)
    for record in records:
        if record.get("kind") == "span" and record["name"].startswith("ladder."):
            rung = record["name"][len("ladder."):]
            durations[rung].append((record["end"] - record["start"]) * 1e3)
    out: dict[str, float] = {}
    below = 0.0
    for rung in LADDER_RUNGS:
        p50 = median(durations[rung])
        out[rung] = p50 - below
        below = p50
    out["e2e"] = below
    return out
