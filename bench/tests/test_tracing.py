"""The tracer: pass-through wrappers, self time, probe installation."""

import json
from pathlib import Path

import pytest

import tracing
from tracing import (Tracer, install, layer_metrics, query_times, self_times,
                     tail)
from workloads import WORKLOADS


def test_wrapper_passes_arguments_and_results_through():
    seen = []

    def f(a, b=2, *rest, **kw):
        seen.append((a, b, rest, kw))
        return {"a": a, "b": b}

    tracer = Tracer()
    g = tracer.wrap(f, "layer.f", lambda args, result: len(args))
    marker = object()
    result = g(marker, 3, 4, 5, key=marker)
    assert seen == [(marker, 3, (4, 5), {"key": marker})]
    assert result == {"a": marker, "b": 3}
    assert g.__name__ == "f" and g.__wrapped__ is f
    (name, start, end, parent, count), = tracer.spans
    assert (name, parent, count) == ("layer.f", -1, 4) and end >= start


def test_wrapper_passes_exceptions_through_and_closes_the_span():
    class Boom(Exception):
        pass

    error = Boom("x")

    def f():
        raise error

    tracer = Tracer()
    g = tracer.wrap(f, "layer.f")
    with pytest.raises(Boom) as caught:
        g()
    assert caught.value is error
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert not tracer._stack
    h = tracer.wrap(lambda: 1, "layer.h")
    h()
    assert tracer.spans[1][3] == -1   # not a child of the failed span


def test_nested_spans_record_their_parent():
    tracer = Tracer()
    inner = tracer.wrap(lambda: tracer.inside("outer"), "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    assert outer() is True
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    assert not tracer.inside("outer")


def test_self_time_on_a_hand_built_tree():
    #  root 0..10: children a 1..4 (with grandchild 2..3) and b 3.5..6
    #  (overlapping a), c 9..12 (runs past root's end).
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 3.5, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
        ["leaf", 20.0, 21.5, -1, 0],
    ]
    own = self_times(spans)
    # root covered by [1, 6] and [9, 10]: 10 - 5 - 1 = 4
    assert own == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.5])


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    d = [float(i) for i in range(100)]
    value = tail(d)
    assert value == 89.0
    assert sum(x > value for x in d) == 10
    assert tail([3.0, 1.0, 2.0]) == 2.0
    assert tail([]) == 0.0


def test_a_retried_decode_belongs_to_the_query_it_retries():
    # empty first attempt + retry; one-shot; empty twice (placeholder)
    decodes = [(1.0, 0), (2.0, 3), (4.0, 5), (8.0, 0), (16.0, 0), (32.0, 2)]
    assert query_times(decodes) == [3.0, 4.0, 24.0, 32.0]


def test_every_probe_target_exists_and_install_undoes_itself():
    import denseadapt.cli  # noqa: F401  (binds the pipeline's imports)
    import denseadapt.pipeline as pipeline
    import denseadapt.training as training

    original = training.encode_ids
    tracer = Tracer()
    undo, missing = install(tracer)
    try:
        assert missing == []
        assert training.encode_ids is not original
        assert pipeline.load_corpus.__wrapped__ is not None
    finally:
        undo()
    assert training.encode_ids is original
    assert not hasattr(pipeline.load_corpus, "__wrapped__")


def test_layer_metrics_cover_every_name_and_benchmark_json_lists_them():
    spans = [["pipeline.train", 0.0, 2.0, -1, 0],
             ["training.gpl", 0.5, 1.5, 0, 0],
             ["training.loss", 0.6, 0.7, 1, 32]]
    m = layer_metrics(spans, 3.0, 2.5)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["pipeline.self_s"] == pytest.approx(1.0)
    assert m["training.gpl_examples"] == 32
    assert m["training.gpl_examples_per_s"] == pytest.approx(32.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    assert [(p["name"], p["unit"], p["better"]) for p in spec["per_layer"]] \
        == [(k, u, b) for k, (u, b) in tracing.LAYER_METRICS.items()]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS.values()]
