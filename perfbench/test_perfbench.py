"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, layer_metrics, leftover_wrappers, self_times  # noqa: E402


def _spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    return [Span("bench.pass", "bench", 0.0, 10.0),
            Span("ldlr.md_count", "ldlr", 1.0, 4.0, parent=0),
            Span("bounds.check_t_recursion", "bounds", 2.0, 3.0, parent=1),
            Span("eigen.top_eigenvalue", "eigen", 5.0, 9.0, parent=0,
                 attrs={"order": 400})]


def test_self_time_subtracts_children_over_nested_spans():
    assert self_times(_spans()) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_add_up_to_the_root():
    spans = _spans()
    spans[1].attrs.update(rss0_mb=100.0, rss1_mb=150.0)
    m = layer_metrics(spans)
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["bench.uncovered_s"] == pytest.approx(10.0)
    assert m["bench.uncovered_s"] == 3.0
    assert m["eigen.lanczos_s"] == 4.0 and m["eigen.dense_s"] == 0.0
    assert m["ldlr.md_s"] == 3.0 and m["ldlr.rss_growth_mb"] == 50.0
    assert m["bounds.points"] == 1


def test_overlapping_children_are_counted_once():
    spans = [Span("r", "bench", 0.0, 10.0),
             Span("x", "ldlr", 1.0, 5.0, parent=0),
             Span("y", "ldlr", 4.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.count_beyond(100, 90) == 10
    assert run.percentile([5.0], 90) == 5.0
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.count_beyond(14, 90) == 1
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_tracer_records_spans_and_is_fully_removed():
    import importlib

    import groupsynch
    from groupsynch import eigen, ldlr
    detect = importlib.import_module("groupsynch.detect")  # the package re-exports detect()
    original = eigen.top_eigenvalue
    tracer = Tracer()
    with tracer:
        assert detect.top_eigenvalue is not original
        assert groupsynch.top_eigenvalue is not original
        assert leftover_wrappers()
        rep = ldlr.ldlr_exact_multinomial(3, 4, 0.9, 2, exact=True)
    assert rep.terms[0] == 1
    assert leftover_wrappers() == []
    assert detect.top_eigenvalue is original and groupsynch.top_eigenvalue is original
    assert eigen.top_eigenvalue is original
    names = [s.name for s in tracer.spans]
    assert names == ["ldlr.ldlr_exact_multinomial"]
    assert tracer.spans[0].attrs["key"] == [3, 4, 2, "pearson", True]
    assert tracer.spans[0].attrs["vectors"] == 15


def test_fallback_and_nested_calls_are_attributed():
    from groupsynch import ResourceLimitError, ldlr
    tracer = Tracer()
    with tracer:
        root = tracer.open("bench.pass", "bench")
        with pytest.raises(ResourceLimitError):
            ldlr.ldlr_exact_multinomial(13, 16, 0.9, 2)
        ldlr.moment_table(3, 5, 2)
        tracer.close(root)
    m = layer_metrics(tracer.spans)
    assert m["ldlr.fallbacks"] == 1
    assert m["ldlr.calls"] == 3                  # moment_table nests one exact call
    assert m["ldlr.distinct_tables_ratio"] == 1.0
    assert m["ldlr.count_vectors"] == 21         # only the call that enumerated
    assert leftover_wrappers() == []


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    emitted = set(layer_metrics([Span("bench.pass", "bench", 0.0, 1.0)]))
    emitted |= {"trace.job_s", "trace.untraced_job_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(tracing.LAYERS) <= {m["name"].split(".")[0] for m in spec["per_layer"]}
