"""In-memory spans recorded by the harness around its calls into ``dimspec``.

A span is (id, name, start, end, parent). Spans stay in memory while the
workload runs and are written out once at the end. A span's self time is its
length minus the time its child spans cover; the harness is serial, so
children never overlap and that is simply the sum of their lengths.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for sid, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for sid, name, start, end, _ in self.spans:
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return table

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


class NullTracer:
    """Tracing off: ``span`` costs one call returning a shared no-op context."""

    enabled = False
    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL


NULL = NullTracer()
