"""In-memory spans recorded around calls into the package's layers.

A span is (id, name, start, end, parent, op): ``parent`` is the id of the
span that was open when it started, ``op`` the index of the benchmark op it
belongs to. Spans stay in memory during the run and the benchmark writes them out
once at the end, so recording one costs two clock reads and a list append.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Time the block, as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": parent, "op": op}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int | None, op: int | None) -> int:
        """Record a span measured elsewhere, such as in a child process."""
        rec = {"id": len(self.spans), "name": name, "start": start, "end": end,
               "parent": parent, "op": op}
        self.spans.append(rec)
        return rec["id"]

    def child_seconds(self) -> dict[int, float]:
        """Summed duration of each span's direct children, in seconds, by span id."""
        inner: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                inner[s["parent"]] += s["end"] - s["start"]
        return inner
