"""Tests of the benchmark's own machinery: ``python3 -m pytest perfbench -q``.

They exercise the harness only; running a workload is the benchmark's job.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    Patch,
    ScaledClock,
    Spans,
    digest_of,
    median,
    patched,
    percentile,
)


class Engine:
    def price(self, rows):
        return len(rows)

    @classmethod
    def build(cls, n):
        return list(range(n))


def test_benchmark_json_matches_harness_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["http-warm", "dse-sweep", "plan-grid", "fold-aaq"]


def test_percentile_and_median_edges():
    assert median([]) == 0.0 and percentile([], 99.0) == 0.0
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile(values, 100.0) == 100.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_digest_is_exact_on_floats():
    assert digest_of([0.1 + 0.2]) == digest_of([0.30000000000000004])
    assert digest_of([0.1 + 0.2]) != digest_of([0.3])


def test_patched_records_spans_and_restores_methods():
    spans = Spans()
    original_price = Engine.__dict__["price"]
    original_build = Engine.__dict__["build"]
    patches = (
        Patch(Engine, "price", "price", lambda args, kwargs, result: result),
        Patch(Engine, "build", "build"),
    )
    with patched(spans, patches):
        assert Engine().price(Engine.build(7)) == 7
    assert Engine.__dict__["price"] is original_price
    assert Engine.__dict__["build"] is original_build
    assert [s.name for s in spans.records] == ["build", "price"]
    assert spans.size("price") == 7.0
    assert spans.per_unit_ns("price") > 0.0


def test_nested_spans_link_parents_and_windows_filter():
    spans = Spans()
    inner = spans.wrap(lambda: None, "inner")
    outer = spans.wrap(lambda: inner(), "outer")
    outer()
    outer_span, inner_span = spans.records
    assert inner_span.parent == 0 and outer_span.parent == -1
    summary = spans.summary()
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]
    window = [(inner_span.start, inner_span.end)]
    assert [s.name for s in spans.within(window).records] == ["inner"]
    assert spans.window_totals(window, "inner") == [inner_span.seconds]


def test_scaled_clock_gives_a_positive_factor():
    clock = ScaledClock()
    clock.read()
    assert len(clock.readings) == 2 and clock.factor > 0.0
