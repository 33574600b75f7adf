"""Spans recorded from the benchmark's own code, around calls into ``repro``.

Nothing inside ``src/`` knows about this module: a :class:`Tracer` times
public functions either through an explicit ``with tracer.span(...)`` in
the workload code or by swapping a timing wrapper over an attribute
(:meth:`Tracer.wrap`).  Spans stay in memory until :meth:`Tracer.dump`.

A span is ``[name, start, end, parent, op, calls, busy]``.  Calls that
happen thousands of times per op (``Network.step``, ``Network.enqueue``)
are *aggregated*: one span per (parent, name) whose ``busy`` is the sum of
the call durations and whose ``calls`` counts them.  A span's self time is
its ``busy`` minus the ``busy`` of its direct children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

NAME, START, END, PARENT, OP, CALLS, BUSY = range(7)
_MISSING = object()


class Tracer:
    """Collects spans; with ``enabled=False`` every method is a no-op, so
    workload code is the same with tracing on and off."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        #: identifier shared by the spans of one op; workloads set it.
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._aggregates: Dict[tuple, list] = {}
        self._patched: List[tuple] = []

    # -- recording ------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), 0.0, parent, self.op, 1, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[END] = perf_counter()
            record[BUSY] = record[END] - record[START]

    def _timed(self, fn, name: str, aggregate: bool):
        if not aggregate:
            def spanned(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return spanned

        spans, stack, aggregates = self.spans, self._stack, self._aggregates

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                parent = stack[-1] if stack else None
                record = aggregates.get((parent, name))
                if record is None:
                    record = [name, start, end, parent, self.op, 0, 0.0]
                    aggregates[(parent, name)] = record
                    spans.append(record)
                record[END] = end
                record[CALLS] += 1
                record[BUSY] += end - start
        return counted

    def wrap(self, owner, attr: str, name: str, aggregate: bool = False,
             restore: bool = True) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a module, a class or an instance.  Patches on modules
        and classes are undone by :meth:`unwrap_all`; pass
        ``restore=False`` for an instance that dies with its op.
        """
        if not self.enabled:
            return
        if restore:
            self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self._timed(getattr(owner, attr), name, aggregate))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self time, summed busy time, call count."""
        child_busy = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] is not None:
                child_busy[record[PARENT]] += record[BUSY]
        totals: Dict[str, Dict[str, float]] = {}
        for index, record in enumerate(self.spans):
            entry = totals.setdefault(
                record[NAME], {"self_s": 0.0, "busy_s": 0.0, "calls": 0}
            )
            entry["self_s"] += record[BUSY] - child_busy[index]
            entry["busy_s"] += record[BUSY]
            entry["calls"] += record[CALLS]
        return totals

    def root_busy(self) -> float:
        return sum(r[BUSY] for r in self.spans if r[PARENT] is None)

    def dump(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump({"spans": [
                {
                    "name": r[NAME],
                    "start_s": r[START] - origin,
                    "end_s": r[END] - origin,
                    "parent": r[PARENT],
                    "op": r[OP],
                    "calls": r[CALLS],
                    "busy_s": r[BUSY],
                }
                for r in self.spans
            ]}, handle)
