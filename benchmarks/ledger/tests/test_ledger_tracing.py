"""Span self-time arithmetic and the span file."""

from __future__ import annotations

from tracing import Tracer, iter_spans, summarize, wrap_methods


def test_self_time_on_a_hand_built_tree():
    # run [0,100] ─ core [10,60] ─ rb [20,35]
    #             └ core [60,90]        (5 of leaf time inside the first core)
    names = ["run", "core", "rb"]
    columns = {
        "name": [0, 1, 2, 1],
        "start": [0, 10, 20, 60],
        "end": [100, 60, 35, 90],
        "parent": [-1, 0, 1, 0],
        "op": [0, 0, 0, 0],
        "leaf": [0, 5, 0, 0],
    }
    table = summarize(columns, names, {"lattice.join": [7, 5]})
    assert table["run"] == {"calls": 1, "total": 100, "self": 20}
    assert table["core"] == {"calls": 2, "total": 80, "self": 50 - 15 - 5 + 30}
    assert table["rb"] == {"calls": 1, "total": 15, "self": 15}
    assert table["lattice.join"] == {"calls": 7, "total": 5, "self": 5}
    # Self times add back up to the root's duration: nothing counted twice.
    assert sum(row["self"] for row in table.values()) == 100


class _Lattice:
    def join(self, a, b):
        return a | b

    def leq(self, a, b):
        return self.join(a, b) == b


def test_recorded_spans_nest_and_leaves_count_outermost_calls_only(tmp_path):
    tracer = Tracer()
    lattice = _Lattice()
    wrap_methods(lattice, ("join", "leq"), lambda fn, method: tracer.leaf_function(fn, f"lattice.{method}"))

    def on_message(value):
        return lattice.leq(value, value | {1}) and lattice.join(value, {2})

    handler = tracer.span_function(on_message, "core.test", op="p0")
    root = tracer.enter("engine.run")
    for _ in range(50):
        handler(frozenset({0}))
    tracer.exit(root)

    table = tracer.summary()
    assert table["core.test"]["calls"] == 50
    # leq calls join inside the layer: one leq call, not a leq and a join.
    assert table["lattice.leq"]["calls"] == 50
    assert table["lattice.join"]["calls"] == 50
    assert sum(row["self"] for row in table.values()) == table["engine.run"]["total"]
    assert all(row["self"] >= 0 for row in table.values())

    path = tmp_path / "trace.json"
    tracer.write(path, workload="test")
    spans = list(iter_spans(path))
    assert len(spans) == 51
    assert [span for span in spans if span["parent"] == -1] == [spans[0]]
    assert all(0 <= span["parent"] < index for index, span in enumerate(spans) if index)
    assert all(span["start"] <= span["end"] for span in spans)
    assert spans[1]["name"] == "core.test" and spans[1]["op"] == "p0"
