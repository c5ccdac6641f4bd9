"""Span folding: self time is duration minus the time child spans cover."""

import pytest

from layers import PER_LAYER_UNITS, fold_spans, layer_metrics
from repro.obs import Tracer


class Clock:
    """A hand-advanced clock for deterministic span times."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced(build):
    clock = Clock()
    tracer = Tracer(clock=clock)
    build(tracer, clock)
    return fold_spans(tracer.roots)


def test_self_time_excludes_children():
    def build(tracer, clock):
        with tracer.span("plan"):
            clock.now += 1.0
            with tracer.span("sample"):
                clock.now += 3.0
            with tracer.span("solve"):
                clock.now += 2.0
                with tracer.span("ud"):
                    clock.now += 1.5
            clock.now += 0.5

    table = traced(build)
    assert table["plan"]["total_s"] == pytest.approx(8.0)
    assert table["plan"]["self_s"] == pytest.approx(1.5)
    assert table["solve"]["self_s"] == pytest.approx(2.0)
    assert table["ud"]["self_s"] == pytest.approx(1.5)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(8.0)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)


def test_repeated_names_fold_into_one_row():
    def build(tracer, clock):
        for _ in range(3):
            with tracer.span("stage"):
                with tracer.span("cd"):
                    clock.now += 2.0
                clock.now += 1.0

    table = traced(build)
    assert table["cd"]["count"] == 3
    assert table["cd"]["total_s"] == pytest.approx(6.0)
    assert table["stage"]["self_s"] == pytest.approx(3.0)


def test_nested_same_name_is_not_counted_twice_in_total():
    def build(tracer, clock):
        with tracer.span("sample"):
            clock.now += 1.0
            with tracer.span("sample"):
                clock.now += 4.0

    row = traced(build)["sample"]
    assert row["count"] == 2
    assert row["total_s"] == pytest.approx(5.0)
    assert row["self_s"] == pytest.approx(5.0)


class FakeSpan:
    def __init__(self, name, start, end, children=()):
        self.name, self.start, self.end, self.children = name, start, end, list(children)


def test_overlapping_children_are_covered_once():
    # Children that overlap (or stick out of the parent) cover their union
    # clipped to the parent, never more than the parent's duration.
    root = FakeSpan(
        "root", 0.0, 10.0,
        [FakeSpan("a", 1.0, 5.0), FakeSpan("b", 3.0, 7.0), FakeSpan("c", 9.0, 12.0)],
    )
    table = fold_spans([root])
    assert table["root"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_cover_every_name_and_zero_unrun_layers():
    table = {
        "bench.generate": {"count": 1, "total_s": 2.0, "self_s": 2.0, "share": 0.5},
        "bench.sample": {"count": 1, "total_s": 1.0, "self_s": 1.0, "share": 0.25},
        "solver.ud": {"count": 1, "total_s": 1.0, "self_s": 1.0, "share": 0.25},
    }
    counters = {
        "rrset.nodes_sampled_total": 500,
        "ud.grid_points_total": 20,
        "storage.pickled_bytes_total": 400,
        "parallel.chunks_total": 4,
    }
    metrics = layer_metrics(
        table, counters, {}, num_nodes=100, num_edges=1000,
        adaptive=False, spread=10.0, overhead_s=0.01,
    )
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["graphs.edges_per_s"] == pytest.approx(500.0)
    assert metrics["rrset.members_per_s"] == pytest.approx(500.0)
    assert metrics["ud.heap_seeds"] == 100 * 20
    assert metrics["storage.pickled_bytes_per_chunk"] == pytest.approx(100.0)
    assert metrics["core.cd_s"] == 0.0 and metrics["graphs.read_s"] == 0.0
