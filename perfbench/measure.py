"""Statistics the benchmark reports: tail percentiles that rest on enough
samples, quartile spreads, and the open-loop rate ladder's pass/fail rule.

Pure Python (no NumPy) so the helpers and their tests run anywhere.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def min_samples_for(q: float) -> int:
    """Fewest samples for which percentile ``q`` (0-100) has
    :data:`MIN_SAMPLES_BEYOND` samples above it (1000 for p99)."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {q}")
    return math.ceil(MIN_SAMPLES_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100), as NumPy's default."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q``, refused unless at least ten samples lie beyond it:
    a p99 from fewer than 1000 samples is mostly one or two outliers."""
    needed = min_samples_for(q)
    if len(values) < needed:
        raise ValueError(
            f"p{q:g} needs at least {needed} samples, got {len(values)}"
        )
    return percentile(values, q)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else math.nan
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0 and the quartiles agree)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


# -- open-loop rate ladder ----------------------------------------------------


@dataclass
class StepRecord:
    """What one ladder step observed.

    ``latencies_s`` run from each request's *scheduled* send time to its
    completion, for served requests only.  ``pending`` samples
    ``(seconds since step start, outstanding requests)`` while sending.
    """

    rate: float
    duration_s: float
    sent: int
    latencies_s: list[float] = field(default_factory=list)
    shed: int = 0
    errors: int = 0
    pending: list[tuple[float, int]] = field(default_factory=list)


@dataclass(frozen=True)
class StepVerdict:
    """Pass/fail of one ladder step and why."""

    rate: float
    passed: bool
    p99_ms: float
    backlog_growth: float
    reason: str


def backlog_growth(pending: Sequence[tuple[float, int]], duration_s: float) -> float:
    """Mean outstanding requests in the last quarter of the sending window
    minus the mean in the first quarter.  A server that keeps up hovers
    around a constant depth; one that does not accumulates a backlog that
    grows with time, so this difference grows with the step length."""
    first = [d for t, d in pending if t <= duration_s / 4]
    last = [d for t, d in pending if t >= 3 * duration_s / 4]
    if not first or not last:
        return 0.0
    return statistics.fmean(last) - statistics.fmean(first)


def judge_step(
    step: StepRecord, limit_ms: float, backlog_limit: float
) -> StepVerdict:
    """A step passes when every request was served (none shed or failed),
    the backlog did not grow by more than ``backlog_limit`` requests over
    the sending window, and p99 latency (from scheduled send) meets
    ``limit_ms``.  A shed or failed request counts as missing the limit,
    so it fails the step outright."""
    growth = backlog_growth(step.pending, step.duration_s)
    if len(step.latencies_s) >= min_samples_for(99):
        p99_ms = tail_percentile(step.latencies_s, 99) * 1e3
    else:
        # Too few served requests for a p99: the step lost requests, or
        # was too short to judge at all.
        p99_ms = math.inf
    if step.shed or step.errors:
        reason = f"{step.shed} shed, {step.errors} failed"
    elif math.isinf(p99_ms):
        reason = f"only {len(step.latencies_s)} requests, too few for a p99"
    elif growth > backlog_limit:
        reason = f"backlog grew by {growth:.0f} requests"
    elif p99_ms > limit_ms:
        reason = f"p99 {p99_ms:.1f} ms over the {limit_ms:g} ms limit"
    else:
        reason = "ok"
    return StepVerdict(step.rate, reason == "ok", p99_ms, growth, reason)


def max_passing_index(verdicts: Sequence[StepVerdict]) -> int | None:
    """Index of the highest step in the passing prefix of an ascending
    ladder (``None`` when the lowest rate already fails): a rate above a
    failing one does not count even if it happens to pass."""
    best: int | None = None
    for i, verdict in enumerate(verdicts):
        if not verdict.passed:
            break
        best = i
    return best
