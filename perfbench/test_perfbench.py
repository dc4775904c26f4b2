"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py

The two workload tests run the benchmark traced (about a minute on two
cores); ``-k 'not traced'`` skips them.
"""

import json

import pytest

import layers
import run
from spans import Tracer, percentile, self_times, tail_level


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span("a", 1.0, 3.5)]) == [2.5]


def test_self_time_subtracts_nested_children_once():
    spans = [span("root", 0.0, 10.0),
             span("child", 1.0, 4.0, parent=0),
             span("grandchild", 2.0, 3.0, parent=1)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_with_back_to_back_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 3.0, parent=0),
             span("b", 3.0, 5.0, parent=0),  # starts where a ends
             span("c", 5.0, 6.5, parent=0)]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 2.0, 1.5])


def test_tracer_records_parents_attrs_and_closes_on_error():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    traced_inner = tracer.wrap("inner", inner, lambda r: {"r": r})
    outer = tracer.wrap("outer", lambda: traced_inner(3) + traced_inner(4))
    assert outer() == 14
    with pytest.raises(ValueError):
        traced_inner(-1)
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, {"r": 6}),
                     ("inner", 0, {"r": 8}), ("inner", -1, None)]
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)


@pytest.mark.parametrize("n, level", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_percentile_interpolates_like_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert percentile(values, 50) == pytest.approx(3.5)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 25) == pytest.approx(2.25)


def test_layer_metrics_from_synthetic_spans():
    spans = [[
        span("eval.prescreen", 0.0, 10.0),
        span("eval.fast", 0.0, 1.0, parent=0, attrs={"status": "ok"}),
        span("eval.full", 1.0, 9.0, parent=0, attrs={"status": "degraded"}),
        span("nlp.ctg", 2.0, 8.0, parent=2,
             attrs={"iterations": 4, "kkt_dim": 7, "not_optimal": 1}),
        span("scopf.ctg.jac", 3.0, 4.0, parent=3),
        span("scopf.ctg.jac", 4.0, 5.0, parent=3),
        span("eval.prescreen", 10.0, 11.0),
        span("eval.fast", 10.0, 11.0, parent=6, attrs={"status": "fallback"}),
    ]]
    m = {name: value for name, (value, _) in
         layers.layer_metrics(spans).items()}
    assert set(m) == set(layers.NAMES)
    assert m["eval.escalated.ratio"] == 0.5
    assert m["eval.degraded.count"] == 1
    assert m["eval.fallback.count"] == 1
    assert m["nlp.ctg.calls"] == 1
    assert m["nlp.ctg.s"] == 6.0
    assert m["nlp.ctg.self_s"] == 4.0
    assert m["nlp.ctg.kkt_dim"] == 7
    assert m["scopf.ctg.jac_calls_per_iter"] == 0.5
    assert m["nlp.master.calls"] == 0
    assert m["layer.eval.self_s"] + m["layer.nlp.self_s"] + \
        m["layer.scopf.self_s"] == pytest.approx(11.0)


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert per_layer == layers.NAMES + run.TRACE_METRICS


def _traced(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_pipeline_reaches_the_master(capsys):
    m = _traced("pipeline-14", capsys)
    assert m["nlp.master.calls"] >= 1
    assert m["nlp.base.calls"] >= 1 and m["nlp.ctg.calls"] >= 1
    assert 0 <= m["trace.residual_s"] < 0.25 * m["trace.wall_s"]


def test_traced_screen_bypasses_the_interior_point_solver(capsys):
    m = _traced("screen-30", capsys)
    assert m["eval.fast.calls"] == run.SCREEN_POINTS * 20
    assert all(m[f"nlp.{kind}.calls"] == 0 for kind in layers.KINDS)
    assert m["nlp.square.calls"] > 0
