"""In-memory spans and call counters around public market_eos calls.

Spans are opened by wrapping a function at the module attribute its caller
looks it up from (``market_eos.cli.sample_surface``, ``market_eos.eos.
clearing_price_analytic``...). Each span records its name, start, end,
parent span and op id; they stay in memory until the traced pass ends.
Counters wrap the same way but only count calls, for functions called far
too often to time one by one. Wrapping happens in the traced pass only and
is undone afterwards.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

HARNESS = "bench"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.op_counts: list[dict[str, int]] = []
        # counter name -> {innermost open span index: calls}
        self.span_counts: dict[str, dict[int, int]] = {}

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def _count_wrapper(self, name: str, fn):
        by_span = self.span_counts.setdefault(name, {})
        stack = self._stack

        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            where = stack[-1] if stack else -1
            by_span[where] = by_span.get(where, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._span_wrapper(name, fn))

    def count(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._count_wrapper(name, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root harness span."""
        self.op = op_id
        self.counts = {}
        try:
            return self._span_wrapper(f"{HARNESS}.op", fn)(*args)
        finally:
            self.op_counts.append(self.counts)

    # ---------------------------------------------------------------- results

    def durations_ns(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def self_ns_by_layer(self) -> dict[str, int]:
        """Span duration minus the part covered by child spans, summed per layer."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        layers: dict[str, int] = {}
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            layer = s[0].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + (s[2] - s[1]) - child[i]
        return layers

    def ops(self) -> int:
        return len(self.op_counts)

    def op_count_values(self, name: str) -> list[int]:
        return [c.get(name, 0) for c in self.op_counts]

    def counts_per_span(self, counter: str, span_name: str) -> list[int]:
        """Calls of ``counter`` made inside each ``span_name`` span, nested spans included."""
        totals = {i: 0 for i, s in enumerate(self.spans) if s is not None and s[0] == span_name}
        for where, calls in self.span_counts.get(counter, {}).items():
            while where >= 0 and where not in totals:
                where = self.spans[where][3]
            if where >= 0:
                totals[where] += calls
        return list(totals.values())

    def to_records(self) -> list[dict]:
        return [{"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3], "op": s[4]}
                for s in self.spans if s is not None]


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
