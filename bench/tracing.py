"""Spans around the benchmark's calls into myersonlab.

A traced run wraps each call into a layer in a span (name, parent span,
op index, start, end) and keeps the spans in memory until the run ends.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    traced = True

    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, op index, start, end]
        self.op: int | None = None  # None while setting up
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        record = [name, self._stack[-1] if self._stack else None, self.op, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args)
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[tuple[str, int | None], float]:
        """Summed self time per (span name, op index); op None is set-up.

        A span's self time is its duration minus that of the spans nested in it.
        """
        nested = [0.0] * len(self.spans)
        for name, parent, op, start, end in self.spans:
            if parent is not None:
                nested[parent] += end - start
        out: dict[tuple[str, int | None], float] = {}
        for sid, (name, parent, op, start, end) in enumerate(self.spans):
            out[name, op] = out.get((name, op), 0.0) + (end - start) - nested[sid]
        return out

    def to_json(self) -> list[dict]:
        keys = ("name", "parent", "op", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    """Used when tracing is off: calls straight through and records nothing."""

    op = None
    traced = False

    def call(self, name: str, fn, *args):
        return fn(*args)
