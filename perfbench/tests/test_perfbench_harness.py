"""Self-tests of the benchmark's measurement code: spans, self time, percentiles."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402


def span(sid, start, end, parent=-1, name="x", attrs=None):
    return (sid, name, start, end, parent, "0", attrs or {})


def test_self_time_subtracts_children_once():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 2.0, 4.0, parent=1),  # overlaps span 2: [1, 4] is covered once
        span(4, 9.0, 12.0, parent=1),  # runs past its parent: only [9, 10] counts
        span(5, 1.5, 2.5, parent=2),
    ]
    selfs = harness.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_nesting_and_self_times_add_up():
    tr = harness.Tracer()
    tr.item = "7"
    with tr.span("outer"):
        with tr.span("mid") as s:
            with tr.span("inner"):
                sum(range(1000))
            s.add(terms=3)
        with tr.span("mid") as s:
            s.add(terms=4)
    by_name = {}
    for sid, name, start, end, parent, item, attrs in tr.spans:
        by_name.setdefault(name, []).append((sid, parent))
        assert item == "7"
    (outer_id, outer_parent), = by_name["outer"]
    assert outer_parent == -1
    assert all(parent == outer_id for _, parent in by_name["mid"])
    selfs = harness.self_times(tr.spans)
    outer = next(s for s in tr.spans if s[1] == "outer")
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) == pytest.approx(outer[3] - outer[2], abs=1e-9)
    totals = harness.layer_totals(tr.spans)
    assert totals["mid.calls"] == 2
    assert totals["mid.terms"] == 7
    assert totals["outer.busy_s"] == pytest.approx(selfs[outer_id])


def test_span_counts_the_exception_it_lets_through():
    class BudgetExceeded(RuntimeError):
        pass

    tr = harness.Tracer()
    with pytest.raises(BudgetExceeded):
        with tr.span("groebner.basis"):
            raise BudgetExceeded()
    assert harness.layer_totals(tr.spans)["groebner.basis.budget_exceeded"] == 1


def test_null_tracer_records_nothing():
    tr = harness.NullTracer()
    with tr.span("a") as s:
        s.add(n=1)
    assert not tr.enabled


def test_nearest_rank_percentile_and_samples_beyond():
    xs = list(range(100, 0, -1))
    assert harness.percentile(xs, 50) == (50, 50)
    assert harness.percentile(xs, 90) == (90, 10)
    assert harness.percentile(list(range(1, 102)), 90) == (91, 10)
    assert harness.percentile([5.0, 1.0, 3.0], 90) == (5.0, 0)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def a_pass(prologue, items, factors=None, failed=0):
    timed = [prologue] + items
    return harness.PassResult(len(items), sum(timed), timed, factors or [1.0] * len(timed), failed)


def test_summary_reports_sample_count_and_fail_ratio(capsys):
    passes = [a_pass(0.5, [0.01] * 60, failed=3), a_pass(0.3, [0.02] * 60)]
    metrics = harness.end_to_end([0.3, 0.1, 0.2], [1.0] * 3, passes)
    assert metrics["items_per_s"] == pytest.approx(120 / 2.6)
    assert metrics["item_p50_ms"] == pytest.approx(10.0)
    assert metrics["item_p90_ms"] == pytest.approx(20.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    run.print_summary(passes, metrics, harness.END_TO_END_METRICS)
    out = capsys.readouterr().out
    assert "item samples: 120, beyond p90: 12" in out
    assert "fail_ratio: 0.025 (3/120)" in out
    line = json.loads(run.result_line(passes, metrics, harness.END_TO_END_METRICS))
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 120, 3)
    assert set(line["metrics"]) == {name for name, _ in harness.END_TO_END_METRICS}


def test_speed_factors_scale_each_interval():
    slow = a_pass(1.0, [0.2] * 10, factors=[0.5] + [0.5] * 5 + [1.0] * 5)
    fast = a_pass(0.0, [0.1] * 10)
    scaled = harness.end_to_end([1.0, 3.0, 2.0], [2.0, 0.5, 1.0], [slow, fast])
    assert scaled["items_per_s"] == pytest.approx(20 / (0.5 + 0.5 + 1.0 + 1.0))
    assert scaled["item_p50_ms"] == pytest.approx(100.0)
    assert scaled["item_p90_ms"] == pytest.approx(200.0)
    assert scaled["setup_s"] == pytest.approx(2.0)
    raw = harness.end_to_end([1.0, 3.0, 2.0], [2.0, 0.5, 1.0], [slow, fast], scaled=False)
    assert raw["items_per_s"] == pytest.approx(20 / 4.0)
    assert raw["setup_s"] == pytest.approx(2.0)


def test_speed_probe_uses_the_probes_nearest_each_time():
    speed = harness.SpeedProbe()
    nominal = harness.PROBE_NOMINAL_S
    # five slow probes around t=10, five nominal ones around t=20
    speed.samples = [(10.0 + i / 10, 2 * nominal) for i in range(5)]
    speed.samples += [(20.0 + i / 10, nominal) for i in range(5)]
    assert speed.factors([0.0, 10.2, 19.0, 25.0]) == pytest.approx([0.5, 0.5, 1.0, 1.0])
    speed.samples = speed.samples[:2]
    assert speed.factors([0.0]) == pytest.approx([0.5])


def test_keep_going_stops_nearest_the_target():
    assert harness.keep_going([4.0], 20)
    assert harness.keep_going([4.0] * 4, 20)  # 16 s done, a fifth ends at 20
    assert not harness.keep_going([4.0] * 5, 20)
    assert not harness.keep_going([17.0], 20)  # 34 s is further from 20 than 17 s


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
