"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op id).  Spans are kept in a list and
written out once, when the run ends.  With tracing off the recorder hands
out a shared no-op context, so an untraced op pays one method call per span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op_id: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        if not self.enabled:
            return self._null
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "op": self.op_id}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> dict:
    """Per-op self time by span name: each span's duration minus the part of
    its interval covered by its children.  Maps op id to {name: seconds}."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(i, []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        per_op[s["op"]][s["name"]] += (s["end"] - s["start"]) - covered
    return {k: dict(v) for k, v in per_op.items()}
