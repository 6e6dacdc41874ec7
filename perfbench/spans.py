"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: name, start, end, parent span
and op id (the pass or request it belongs to).  Spans stay in memory
while the run works and are written out once, at the end, so recording
costs a ``perf_counter`` pair and a list append per call.

:meth:`Trace.patch` puts a span around every call of a public function,
method or constructor for as long as an ``ExitStack`` is open, so a
traced run drives the library's own routes (``run_scenario_grid``,
``HysteresisService.run``) and the spans follow whatever those routes
call, in the order they call it.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


class Trace:
    """Spans of one traced run, single-threaded by design: spans open
    only on the thread that drives the run, never on a worker's."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent["op"]
        record = {
            "id": self._next_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op,
            "attrs": attrs,
        }
        self._next_id += 1
        self._stack.append(record)
        record["start"] = time.perf_counter() - self.origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()
            self.spans.append(record)

    def patch(
        self, stack: ExitStack, owner, attr: str, name: str, annotate=None
    ) -> None:
        """Span every call of ``owner.attr`` as ``name`` until ``stack``
        closes, then put the original back.  ``owner`` is a module, a
        class or an instance; ``annotate(span, result, args)`` may add
        attrs to the span once it has closed, outside its time."""
        original = getattr(owner, attr)
        own = vars(owner)
        had_own, saved = attr in own, own.get(attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if annotate is not None:
                annotate(record, result, args)
            return result

        def restore() -> None:
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

        setattr(owner, attr, spanned)
        stack.callback(restore)

    def select(self, name: str, **match) -> list[dict]:
        """Every span called ``name`` whose attrs match."""
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def durations(self, name: str, **match) -> list[float]:
        return [_duration(s) for s in self.select(name, **match)]

    def per_op_totals(self, name: str, value=_duration, **match) -> dict:
        """``{op: summed value}`` of the spans called ``name``; the value
        is the duration unless ``value(span)`` says otherwise."""
        totals: dict = {}
        for s in self.select(name, **match):
            totals[s["op"]] = totals.get(s["op"], 0) + value(s)
        return totals

    def median_per_op(self, name: str, **match) -> float:
        """Median over ops of each op's summed ``name`` time (0: none)."""
        totals = self.per_op_totals(name, **match)
        return statistics.median(totals.values()) if totals else 0.0

    def coverage(self) -> float:
        """Share of the traced wall time that top-level spans cover."""
        top = [s for s in self.spans if s["parent"] is None]
        if not top:
            return 0.0
        return sum(map(_duration, top)) / (time.perf_counter() - self.origin)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))
