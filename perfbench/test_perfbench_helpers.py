"""Tests for the benchmark's own helpers: self-time arithmetic, the
ten-samples-beyond rule for percentiles, the rate ladder's pass/fail rule
(including backlog growth), host-speed scaling and the run comparison."""

from __future__ import annotations

import math
import time

import pytest

from common import REFERENCE_KERNEL_S, HostSpeed
from compare import change, compare
from measure import (
    StepRecord,
    backlog_growth,
    judge_step,
    max_passing_index,
    min_samples_for,
    percentile,
    quartiles,
    relative_spread,
    tail_percentile,
)
from tracing import Span, Tracer, covered_length, per_request, self_times


def _span(i: int, start: float, end: float, parent: int | None, rid: int = 0) -> Span:
    return Span(i, f"s{i}", start, end, parent, rid)


# -- self times ---------------------------------------------------------------


def test_self_time_subtracts_children() -> None:
    spans = [_span(0, 0.0, 10.0, None), _span(1, 1.0, 3.0, 0), _span(2, 5.0, 9.0, 0)]
    selves = self_times(spans)
    assert selves == {0: pytest.approx(4.0), 1: pytest.approx(2.0), 2: pytest.approx(4.0)}


def test_self_times_of_a_tree_add_up_to_the_root() -> None:
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 0.5, 6.0, 0),
        _span(2, 1.0, 2.0, 1),
        _span(3, 2.5, 5.5, 1),
        _span(4, 7.0, 9.5, 0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_are_clipped() -> None:
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(7.0)
    spans = [_span(0, 0.0, 10.0, None), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_nests_and_tags_requests() -> None:
    tracer = Tracer()
    tracer.request_id = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.001)
    tracer.request_id = 8
    with tracer.span("outer"):
        pass
    inner, outer, second = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert (inner.request_id, outer.request_id, second.request_id) == (7, 7, 8)
    selves = self_times(tracer.spans)
    assert selves[outer.span_id] == pytest.approx(outer.duration - inner.duration)
    totals = per_request(tracer.spans, selves, self_time=False)
    assert set(totals["outer"]) == {7, 8}


# -- percentiles --------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it() -> None:
    assert min_samples_for(99) == 1000
    assert min_samples_for(50) == 20
    values = [float(i) for i in range(999)]
    with pytest.raises(ValueError):
        tail_percentile(values, 99)
    values.append(999.0)
    assert tail_percentile(values, 99) == pytest.approx(percentile(values, 99))
    assert sum(v > tail_percentile(values, 99) for v in values) >= 10


def test_percentile_interpolates_like_numpy() -> None:
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([5.0], 99) == 5.0
    assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def test_quartile_spread() -> None:
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = quartiles(values)
    assert q2 == 3.0 and q1 < q2 < q3
    assert relative_spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert relative_spread([2.0, 2.0, 2.0]) == 0.0


# -- rate ladder --------------------------------------------------------------


def _step(rate: float, latency_s: float, depth: list[int], shed: int = 0) -> StepRecord:
    duration = 4.0
    pending = [(duration * i / len(depth), d) for i, d in enumerate(depth)]
    return StepRecord(
        rate, duration, 1000, latencies_s=[latency_s] * 1000, shed=shed,
        pending=pending,
    )


def test_step_passes_when_fast_and_flat() -> None:
    flat = [3, 5, 2, 4] * 50
    verdict = judge_step(_step(250, 0.01, flat), 100.0, 64.0)
    assert verdict.passed and verdict.p99_ms == pytest.approx(10.0)


def test_step_fails_on_latency_limit_and_on_shedding() -> None:
    flat = [3] * 200
    assert not judge_step(_step(250, 0.2, flat), 100.0, 64.0).passed
    shed = judge_step(_step(250, 0.01, flat, shed=1), 100.0, 64.0)
    assert not shed.passed and "shed" in shed.reason


def test_step_with_too_few_samples_for_a_p99_fails() -> None:
    short = _step(250, 0.01, [1] * 200)
    short.latencies_s = short.latencies_s[:999]
    verdict = judge_step(short, 100.0, 64.0)
    assert not verdict.passed and math.isinf(verdict.p99_ms)


def test_growing_backlog_fails_even_with_low_latency() -> None:
    growing = list(range(0, 400, 2))
    assert backlog_growth(_step(1000, 0.01, growing).pending, 4.0) > 64
    verdict = judge_step(_step(1000, 0.01, growing), 100.0, 64.0)
    assert not verdict.passed and "backlog" in verdict.reason


def test_highest_passing_rate_is_the_passing_prefix() -> None:
    ok = judge_step(_step(250, 0.01, [1] * 200), 100.0, 64.0)
    bad = judge_step(_step(500, 0.5, [1] * 200), 100.0, 64.0)
    late_ok = judge_step(_step(1000, 0.01, [1] * 200), 100.0, 64.0)
    assert max_passing_index([ok, ok, bad, late_ok]) == 1
    assert max_passing_index([bad, ok]) is None


# -- host speed ---------------------------------------------------------------


def test_host_speed_scales_each_timing_by_its_local_phase() -> None:
    speed = HostSpeed()
    fast, slow = REFERENCE_KERNEL_S, 1.5 * REFERENCE_KERNEL_S
    speed.samples = [(float(t), fast) for t in range(30)]
    speed.samples += [(float(t), slow) for t in range(30, 60)]
    assert speed.factor_at(5.0) == pytest.approx(1.0)
    assert speed.factor_at(55.0) == pytest.approx(1 / 1.5)
    # The same work timed in either phase reads the same at reference speed.
    assert speed.scaled([(5.0, 0.010), (55.0, 0.015)]) == pytest.approx([0.010, 0.010])


def test_host_speed_kernel_samples_are_timed() -> None:
    speed = HostSpeed()
    speed.sample(3)
    assert len(speed.samples) == 3 and all(d > 0 for _, d in speed.samples)
    assert speed.factor_at(speed.samples[1][0]) > 0


# -- comparison ---------------------------------------------------------------


def test_change_is_positive_when_worse() -> None:
    assert change(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert change(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert math.isinf(change(0.0, 1.0, "lower"))


def test_compare_flags_a_regression_beyond_the_bound() -> None:
    catalogue = {
        "end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }
    base = {("w", "latency_p50_ms"): [10.0, 10.1, 9.9, 10.0]}
    same = {("w", "latency_p50_ms"): [10.05, 10.0, 9.95, 10.1]}
    slower = {("w", "latency_p50_ms"): [12.0, 12.1, 11.9, 12.0]}
    assert compare(base, same, catalogue)[1] is False
    assert compare(base, slower, catalogue)[1] is True
