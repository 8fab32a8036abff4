"""Tests of the benchmark's own helpers.  Run with: python3 -m pytest perfbench"""

import json
import threading
from pathlib import Path

import pytest

import stats
from tracing import Span, Tracer, layer_totals, self_times, union_length

HERE = Path(__file__).resolve().parent


class TestPercentileRule:
    def test_interpolates_between_order_statistics(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert stats.percentile(values, 0) == 1.0
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 100) == 5.0
        assert stats.percentile(values, 90) == pytest.approx(4.6)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)

    def test_ten_samples_beyond(self):
        assert stats.samples_beyond(100, 90) == 10
        assert stats.samples_beyond(99, 90) == 9
        assert stats.samples_beyond(1000, 99) == 10

    def test_best_per_input_takes_each_parts_fastest_repeat(self):
        windows = [
            ("a", 0.7, [0.1, 0.5]),  # 0.1 outside its trials
            ("b", 0.2, [0.2]),  # none outside
            ("a", 0.6, [0.3, 0.2]),
            ("a", 0.4, [0.4]),  # lacks a trial (it failed): left out
            ("b", 0.3, [0.15]),
            ("c", 0.9, []),  # every repeat failed: no trial timed
        ]
        elapsed, best = stats.best_per_input(windows)
        assert best == [0.1, 0.2, 0.15]
        assert elapsed == pytest.approx((0.1 + 0.2 + 0.1) + (0.15 + 0.0))

    def test_summary_reports_samples_beyond_p90(self):
        summary = stats.summarize([(2.0, [0.01 * i for i in range(1, 101)])])
        assert summary["samples"] == 100
        assert summary["trials_per_s"] == pytest.approx(50.0)
        assert summary["beyond_p90"] == stats.TAIL_SAMPLES


def span(i, name, start, end, parent=-1, thread=1):
    return Span(i, name, start, end, parent, thread)


class TestSelfTime:
    def test_union_merges_overlaps_and_gaps(self):
        assert union_length([]) == 0.0
        assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
        assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)

    def test_nested_children_on_one_thread(self):
        spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 3.0, 0), span(2, "b", 4.0, 5.0, 0),
                 span(3, "c", 1.5, 2.0, 1)]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(7.0)
        assert selfs[1] == pytest.approx(1.5)
        assert selfs[3] == pytest.approx(0.5)
        assert layer_totals(spans)["b"] == (2, pytest.approx(2.5))

    def test_overlapping_children_on_worker_threads_count_once(self):
        spans = [span(0, "run", 0.0, 10.0), span(1, "t", 1.0, 6.0, 0, thread=2),
                 span(2, "t", 2.0, 8.0, 0, thread=3), span(3, "t", 9.0, 12.0, 0, thread=2)]
        # children cover [1, 8] and [9, 10] of the parent
        assert self_times(spans)[0] == pytest.approx(2.0)


class TestTracer:
    def test_wrapper_records_parents_and_worker_threads(self):
        tracer = Tracer()

        def leaf():
            return 1

        traced_leaf = tracer.wrap("m.leaf", leaf)

        def outer():
            worker = threading.Thread(target=traced_leaf)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            return traced_leaf()

        assert tracer.wrap("m.outer", outer)() == 1
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (root,) = by_name["m.outer"]
        assert root.parent == -1
        assert [s.parent for s in by_name["m.leaf"]] == [root.id, root.id]
        assert len({s.thread for s in by_name["m.leaf"]}) == 2


class TestReferenceComparison:
    CSV = ("scenario,param_name,param_value,trial,metric,value\n"
           "s,p,1.0,0,x,1.0\ns,p,1.0,1,x,2.0\ns,p,1.0,mean,x,1.5\n")

    def test_parses_csv_and_json_alike(self):
        rows = [{"scenario": "s", "param_name": "p", "param_value": 1.0, "trial": t,
                 "metric": "x", "value": v} for t, v in (("0", 1.0), ("1", 2.0), ("mean", 1.5))]
        assert stats.parse_records(self.CSV, "csv") == stats.parse_records(json.dumps(rows), "json")

    def test_identical_records_pass(self):
        ref = stats.parse_records(self.CSV, "csv")
        diff = stats.compare_records(ref, dict(ref), rtol=1e-9, atol=1e-12)
        assert diff == {"missing": [], "failed_trials": set(), "summary_failed": False,
                        "max_rel_diff": 0.0}

    def test_small_difference_is_reported_not_failed(self):
        ref = stats.parse_records(self.CSV, "csv")
        new = dict(ref)
        new[(1.0, "0", "x")] = 1.0 + 1e-12
        diff = stats.compare_records(ref, new, rtol=1e-9, atol=1e-12)
        assert not diff["failed_trials"]
        assert diff["max_rel_diff"] == pytest.approx(1e-12, rel=1e-3)

    def test_large_or_non_finite_difference_fails_the_trial(self):
        ref = stats.parse_records(self.CSV, "csv")
        new = dict(ref)
        new[(1.0, "1", "x")] = 2.1
        new[(1.0, "0", "x")] = float("nan")
        diff = stats.compare_records(ref, new, rtol=1e-9, atol=1e-12)
        assert diff["failed_trials"] == {(1.0, "0"), (1.0, "1")}
        assert not diff["summary_failed"]

    def test_summary_rows_and_missing_keys(self):
        ref = stats.parse_records(self.CSV, "csv")
        new = dict(ref)
        new[(1.0, "mean", "x")] = 9.0
        del new[(1.0, "1", "x")]
        diff = stats.compare_records(ref, new, rtol=1e-9, atol=1e-12)
        assert diff["summary_failed"]
        assert diff["missing"] == [(1.0, "1", "x")]

    def test_duplicate_records_are_rejected(self):
        with pytest.raises(ValueError):
            stats.parse_records(self.CSV + "s,p,1.0,0,x,1.0\n", "csv")


def test_benchmark_json_lists_every_traced_metric():
    """BENCHMARK.json's per-layer list matches the layers the tracer reports."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    expected = {"cli.pool_busy_frac", "trace.overhead", "trace.coverage", "trace.wall_ms",
                "trace.trials"}
    for name in spec["predictions"]:
        if name != "cli.pool_busy_frac":
            expected |= {f"{name}.calls", f"{name}.self_ms"}
    assert {m["name"] for m in bench["per_layer"]} == expected
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
