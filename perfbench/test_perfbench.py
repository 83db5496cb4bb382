"""Tests of the benchmark's own arithmetic: span self time, the tail
percentile rule and the failed-step counting.

    python3 -m pytest perfbench
"""

import statistics
from types import SimpleNamespace

import pytest

from run import end_to_end
from stats import count_failed, quartile_spread, tail_percentile
from tracing import Span, Tracer, by_name, covered_length, patched, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span("loop", 0.0, 10.0, -1, None),
        Span("ctrl", 1.0, 4.0, 0, None),
        Span("qp", 2.0, 3.5, 1, None),
        Span("plant", 5.0, 9.0, 0, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, -1, None), Span("b", 1.0, 5.0, 0, None),
             Span("c", 3.0, 7.0, 0, None), Span("d", 9.0, 12.0, 0, None)]
    # children cover [1, 7] and [9, 10] of the parent's interval
    assert self_times(spans)[0] == pytest.approx(3.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_tracer_records_parents_errors_and_counts():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def observe(counts, result):
        counts["seen"] += result

    traced_inner = tracer.wrap("inner", inner, observe)
    with tracer.span("outer"):
        traced_inner(2)
        with pytest.raises(ValueError):
            traced_inner(-1)
    assert [(s.name, s.parent, s.error) for s in tracer.spans] == [
        ("outer", -1, None), ("inner", 0, None), ("inner", 0, "ValueError")]
    assert tracer.counts["seen"] == 2
    durations, own, errors = by_name(tracer.spans)["inner"]
    assert len(durations) == 2 and errors == [None, "ValueError"]
    outer = tracer.spans[0]
    assert by_name(tracer.spans)["outer"][1][0] == pytest.approx(
        outer.end - outer.start - sum(durations))


def test_patched_restores_attributes_after_an_error():
    owner = SimpleNamespace(f=lambda: 1)
    original = owner.f
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer, [(owner, "f", "f", None)]):
            assert owner.f() == 1 and owner.f is not original
            raise RuntimeError
    assert owner.f is original and len(tracer.spans) == 1


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))          # 1..1000
    assert tail_percentile(values, 99) == 990   # 10 values lie above
    with pytest.raises(ValueError):
        tail_percentile(values[:999], 99)       # only 9 would lie above
    assert tail_percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        tail_percentile([1.0], 100)


def test_failed_steps_are_fallback_or_hold():
    statuses = ["optimal"] * 7 + ["fallback", "hold", "fallback"]
    assert count_failed(statuses) == 3
    assert count_failed(["optimal", "optimal"]) == 0


def test_end_to_end_pools_episodes():
    def episode(samples, loop_s, failed, violations, sq):
        return SimpleNamespace(samples=samples, loop_s=loop_s, failed=failed,
                               violations=violations, sq_power_error=sq,
                               step_time=[0.001 * (i + 1) for i in range(samples)])

    eps = [episode(600, 1.0, 6, 3, 1800.0), episode(600, 2.0, 0, 0, 3000.0)]
    m = end_to_end(eps, setup_s=0.25)
    assert m["samples_per_s"] == pytest.approx(400.0)
    assert m["ok_step_ratio"] == pytest.approx(1 - 6 / 1200)
    assert m["in_bounds_ratio"] == pytest.approx(1 - 3 / 1200)
    assert m["rms_power_error_w"] == pytest.approx(2.0)
    steps = [t for e in eps for t in e.step_time]
    assert m["step_ms_p50"] == pytest.approx(statistics.median(steps) * 1e3)
    assert m["step_ms_p95"] == pytest.approx(tail_percentile(steps, 95) * 1e3)
    assert m["setup_s"] == 0.25


def test_quartile_spread_is_iqr_over_median():
    values = [8, 9, 10, 10, 10, 10, 10, 11, 12, 20]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)
