"""Spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` keeps two kinds of measurement, both in memory until
:meth:`Tracer.write`:

* **spans** — one record per call through a wrapped function
  (``engine.run``, a core's ``on_message``, ``ReliableBroadcaster.handle``):
  name, start, end, the span that was open when it started, and the
  operation it belongs to.  Times are ``perf_counter_ns`` integers relative
  to the tracer's origin, so self-time arithmetic is exact.
* **leaves** — calls too numerous to keep one record each (a lattice join, a
  signature check: millions per run).  A leaf call adds to a per-name
  ``(count, total)`` pair and to the ``leaf`` time of the span it ran in, so
  that span's self time still excludes it.

A span's *self time* is its duration minus its direct children's durations
minus its leaf time; a leaf name's self time is its total.  Summed over
everything under a root they give back the root's duration, which is how the
per-layer shares of an in-process workload are taken.

Nothing here touches ``repro``: wrapping is done by the caller, on objects it
built itself (:func:`wrap_methods`) or on a public method of a class
(:func:`Tracer.span_function`).
"""

from __future__ import annotations

import json
import time
from array import array
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any

class Tracer:
    """In-memory span and leaf recorder (single-threaded, strictly nested)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter_ns()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[Any] = [None]
        self._op_ids: dict[Any, int] = {None: 0}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("l")
        self.leaf = array("q")
        #: Indices of the currently open spans, outermost first.
        self.stack: list[int] = []
        #: Leaf name -> [calls, total ns].
        self.leaves: dict[str, list[int]] = {}
        self._in_leaf = False

    # -- recording --------------------------------------------------------------------

    def _intern(self, table: list, ids: dict, key: Any) -> int:
        index = ids.get(key)
        if index is None:
            index = ids[key] = len(table)
            table.append(key)
        return index

    def add_span(self, name: str, start_ns: int, end_ns: int, parent: int, op: Any = None) -> int:
        """Record a span (times relative to the origin); returns its index."""
        index = len(self.start)
        self.name.append(self._intern(self.names, self._name_ids, name))
        self.parent.append(parent)
        self.op.append(self._intern(self.ops, self._op_ids, op))
        self.leaf.append(0)
        self.start.append(start_ns)
        self.end.append(end_ns)
        return index

    def enter(self, name: str, op: Any = None) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = self.add_span(name, 0, 0, self.stack[-1] if self.stack else -1, op)
        self.stack.append(index)
        self.start[index] = time.perf_counter_ns() - self.origin
        return index

    def exit(self, index: int) -> None:
        """Close the span ``index`` (which must be the innermost open one)."""
        self.end[index] = time.perf_counter_ns() - self.origin
        if self.stack.pop() != index:
            raise RuntimeError("spans must close innermost first")

    def span_function(self, fn: Callable, name: str, op: Any = None) -> Callable:
        """``fn`` wrapped so every call is one span."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            index = enter(name, op)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return traced

    def leaf_function(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so every outermost call is counted and timed as a leaf.

        A leaf that calls another leaf (``leq`` is ``join`` plus a compare)
        is one call of the outer name: the layer is entered once.
        """
        totals = self.leaves.setdefault(name, [0, 0])
        clock = time.perf_counter_ns
        stack, leaf = self.stack, self.leaf

        def traced(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self._in_leaf = False
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    leaf[stack[-1]] += elapsed

        return traced

    # -- reading ----------------------------------------------------------------------

    def columns(self) -> dict[str, array]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "leaf": self.leaf,
        }

    def summary(self) -> dict[str, dict[str, int]]:
        """Calls, total and self time (ns) per span name and per leaf name."""
        return summarize(self.columns(), self.names, self.leaves)

    def write(self, path: Path, **header: Any) -> None:
        """Write every span, column-wise, plus the leaf totals, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **header,
            "unit": "ns",
            "names": self.names,
            "ops": [None if op is None else str(op) for op in self.ops],
            "columns": {key: column.tolist() for key, column in self.columns().items()},
            "leaves": self.leaves,
        }
        with open(path, "w") as out:
            json.dump(payload, out, separators=(",", ":"))


def summarize(columns: dict, names: list[str], leaves: dict[str, list[int]]) -> dict[str, dict[str, int]]:
    """``{name: {calls, total, self}}`` (ns) from span columns and leaf totals.

    This is the arithmetic every per-layer share rests on: a span's self time
    is its duration minus its direct children's durations minus its leaf
    time; a leaf's self time is its total.
    """
    start, end = columns["start"], columns["end"]
    own = [e - s - lf for s, e, lf in zip(start, end, columns["leaf"], strict=True)]
    for index, parent_index in enumerate(columns["parent"]):
        if parent_index >= 0:
            own[parent_index] -= end[index] - start[index]
    table: dict[str, dict[str, int]] = {}
    for index, name_id in enumerate(columns["name"]):
        row = table.setdefault(names[name_id], {"calls": 0, "total": 0, "self": 0})
        row["calls"] += 1
        row["total"] += end[index] - start[index]
        row["self"] += own[index]
    for leaf_name, (calls, total) in leaves.items():
        table[leaf_name] = {"calls": calls, "total": total, "self": total}
    return table


def wrap_methods(obj: Any, methods: Iterable[str], wrap: Callable[[Callable, str], Callable]) -> None:
    """Replace ``obj.<method>`` on the *instance* with ``wrap(bound, method)``.

    Instance attributes shadow class attributes, so the object's own internal
    ``self.<method>`` calls go through the wrapper too — the class and every
    other instance are untouched.
    """
    for method in methods:
        setattr(obj, method, wrap(getattr(obj, method), method))


def iter_spans(path: Path) -> Iterator[dict]:
    """Rows ``{name, start, end, parent, op}`` of a span file (inspection, tests)."""
    payload = json.loads(Path(path).read_text())
    columns = payload["columns"]
    for index in range(len(columns["start"])):
        yield {
            "name": payload["names"][columns["name"][index]],
            "start": columns["start"][index],
            "end": columns["end"][index],
            "parent": columns["parent"][index],
            "op": payload["ops"][columns["op"][index]],
        }
