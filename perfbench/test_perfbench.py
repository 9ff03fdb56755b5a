"""Tests of the benchmark's own helpers: span self time, the tail-percentile
rule and failure counting.  They import nothing from the library."""

import threading

import pytest

from perfbench import stats
from perfbench.tracing import Tracer, attribute_wall, covered, self_times


def _span(sid, parent, start, end, layer="l", name="n"):
    return (sid, parent, name, layer, start, end, 1, 1, None)


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0, -1, 0.0, 10.0, "runner"),
        _span(1, 0, 1.0, 4.0, "core"),
        _span(2, 1, 2.0, 3.0, "graph"),
        _span(3, 0, 5.0, 7.0, "store"),
    ]
    selfs = self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(5.0)
    assert selfs[(1, 1)] == pytest.approx(2.0)
    assert selfs[(1, 2)] == pytest.approx(1.0)
    assert selfs[(1, 3)] == pytest.approx(2.0)


def test_layer_self_times_and_remainder_add_up_to_wall():
    spans = [
        _span(0, -1, 0.0, 10.0, "runner"),
        _span(1, 0, 1.0, 4.0, "core"),
        _span(2, 1, 2.0, 3.0, "graph"),
        _span(3, -1, 11.0, 12.0, "store"),
    ]
    layers, rest = attribute_wall(spans, pid=1, tid=1, wall_s=13.0)
    assert layers == pytest.approx({"runner": 7.0, "core": 2.0, "graph": 1.0, "store": 1.0})
    assert rest == pytest.approx(2.0)
    assert sum(layers.values()) + rest == pytest.approx(13.0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert covered([], 0, 1) == 0.0


def test_tracer_links_nested_calls_and_restores_patches():
    class Base:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.patch(Child, "outer", "a", "outer")
    tracer.patch(Base, "inner", "b", "inner", attr=lambda args, kwargs, result: result)
    tracer.active = True
    assert Child().outer() == 2
    tracer.active = False
    tracer.restore()
    assert "outer" not in Child.__dict__
    assert Base.inner.__name__ == "inner" and not hasattr(Base.inner, "__wrapped__")

    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["inner"][8] == 1
    wall = by_name["outer"][5] - by_name["outer"][4]
    layers, rest = attribute_wall(tracer.spans, by_name["outer"][7], threading.get_ident(), wall)
    assert sum(layers.values()) + rest == pytest.approx(wall)
    assert rest == pytest.approx(0.0, abs=1e-12)


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    traced = tracer.wrap("a", "f", lambda: 3)
    assert traced() == 3
    assert tracer.spans == []


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (999, 95.0), (20000, 99.0), (200, 95.0), (40, 75.0), (20, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    summary = stats.tail(values)
    assert summary["pct"] == pct
    assert summary["n"] == n
    assert n - summary["value"] >= stats.MIN_BEYOND


def test_tail_of_too_few_samples_is_the_median():
    assert stats.tail([3.0, 1.0, 2.0, 10.0]) == {"value": 2.5, "pct": 50.0, "n": 4}


def test_median_and_describe():
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.median([5, 1, 3]) == 3
    summary = stats.describe(list(range(1, 1001)))
    assert summary["p50"] == 500.5
    assert summary["tail"] == 990
    assert summary["tail_pct"] == 99.0


def test_failed_ratio_counts_failed_ops_and_checks():
    outcomes = stats.Outcomes()
    for _ in range(6):
        outcomes.op(True)
    outcomes.op(False, "Overloaded")
    outcomes.check(True, "digest")
    outcomes.check(False, "delivery ratio")
    outcomes.check(True, "valid embedding")
    assert outcomes.attempted == 10
    assert outcomes.failed == 2
    assert outcomes.failed_ratio == pytest.approx(0.2)
    assert outcomes.problems == ["Overloaded", "check failed: delivery ratio"]
    assert stats.Outcomes().failed_ratio == 0.0


def test_reported_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    from perfbench import layers, run
    from perfbench.workloads import Rep

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    assert per_layer == [(name, run._unit(name)) for name in layers.metric_names()]

    rep = Rep()
    rep.wall, rep.latencies, rep.starts, rep.rss_mb = 2.0, [0.5, 1.5], [0.0, 0.5], 100.0
    metrics, _ = run.end_to_end([(0.0, 0.25)], [rep])
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    assert end_to_end == [(name, metric["unit"]) for name, metric in metrics.items()]
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_timings_at_reference_speed():
    from perfbench.speed import NOMINAL_S, at_reference_speed

    # Kernels ran at half the reference speed from t=10 to t=12, at the
    # reference speed from t=12 on.
    samples = [(10.0 + 0.1 * i, 2 * NOMINAL_S) for i in range(20)]
    samples += [(12.0 + 0.1 * i, NOMINAL_S) for i in range(20)]
    ends = [end for end, _ in samples]
    assert at_reference_speed(samples, ends, 10.0, 1.5) == pytest.approx(0.75)
    assert at_reference_speed(samples, ends, 12.05, 1.5) == pytest.approx(1.5)
    # A short interval takes the speed of the second around its middle.
    assert at_reference_speed(samples, ends, 11.0, 0.004) == pytest.approx(0.002)
    # Half its window at each speed: the mean kernel time is 1.5 nominal.
    assert at_reference_speed(samples, ends, 11.55, 0.9) == pytest.approx(0.6, rel=0.05)
    # No sample inside: as measured.
    assert at_reference_speed(samples, ends, 20.0, 3.0) == 3.0
