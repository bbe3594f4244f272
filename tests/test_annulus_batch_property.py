"""Generated batch-vs-loop test of ``AnnulusIndex.batch_query``.

The batched path replays the streaming Theorem 6.1 query as segment
reductions over one flat hit array: per-hit first-occurrence flags, the
first in-range first occurrence, distinct-prefix counts and the stopping
table.  Hypothesis draws the shapes where those reductions can slip: one
data point, one table, a budget of one hit per table, query blocks with
repeated rows, streams that are empty, and point sets with many exact
copies, so one id recurs across tables before the stopping point.  Every
result must equal the :meth:`AnnulusIndex.query` loop on both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combinators import PoweredFamily
from repro.families.bit_sampling import BitSampling
from repro.index.annulus import AnnulusIndex
from repro.spaces import hamming

D = 8
BACKENDS = ["dict", "packed"]
BUDGET_FACTORS = [0.5, 1.0, 2.0, 8.0]
# Hamming-distance intervals: distance 0 only, near, far, everything.
INTERVALS = [(-0.5, 0.5), (0.5, 2.5), (2.5, 8.5), (-0.5, 8.5)]


def _hamming(q, pts):
    return np.count_nonzero(pts != q, axis=1).astype(np.float64)


def _build(points, n_tables, budget_factor, interval, power, backend, seed):
    return AnnulusIndex(
        points, PoweredFamily(BitSampling(D), power),
        interval=interval, proximity=_hamming, n_tables=n_tables,
        budget_factor=budget_factor, rng=seed, backend=backend,
    )


def _assert_batch_equals_loop(index, queries):
    batched = index.batch_query(queries)
    assert len(batched) == queries.shape[0]
    for query, got in zip(queries, batched):
        want = index.query(query)
        assert got.index == want.index
        assert got.stats == want.stats
        if want.found:
            assert got.proximity == want.proximity
        else:
            assert np.isnan(got.proximity)
    return batched


@st.composite
def annulus_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_points = draw(st.integers(1, 30))
    # Few prototypes, lightly perturbed: exact copies collide in every
    # table, so one id recurs in the stream and buckets hold several ids.
    prototypes = hamming.random_points(3, D, rng=rng)
    points = prototypes[rng.integers(0, 3, size=n_points)]
    points = points ^ (rng.random(points.shape) < 0.1).astype(points.dtype)
    n_queries = draw(st.integers(1, 10))
    kinds = draw(
        st.lists(st.sampled_from(["data", "fresh", "repeat"]),
                 min_size=n_queries, max_size=n_queries)
    )
    queries = hamming.random_points(n_queries, D, rng=rng)
    for i, kind in enumerate(kinds):
        if kind == "data":
            queries[i] = points[rng.integers(0, n_points)]
        elif kind == "repeat" and i:
            queries[i] = queries[rng.integers(0, i)]
    return (
        points,
        queries,
        draw(st.integers(1, 6)),
        draw(st.sampled_from(BUDGET_FACTORS)),
        draw(st.sampled_from(INTERVALS)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 100)),
    )


@given(annulus_cases())
@settings(max_examples=60, deadline=None)
def test_batch_equals_query_loop_on_both_backends(case):
    points, queries, n_tables, budget_factor, interval, power, seed = case
    results = {}
    for backend in BACKENDS:
        index = _build(
            points, n_tables, budget_factor, interval, power, backend, seed
        )
        results[backend] = _assert_batch_equals_loop(index, queries)
    for d_res, p_res in zip(results["dict"], results["packed"]):
        assert d_res.index == p_res.index
        assert d_res.stats == p_res.stats


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_ids_before_the_stopping_point(backend):
    """Fixed example: two copies of the origin collide with it in every
    table, so the examined prefix repeats ids (``retrieved >
    unique_candidates``) both when the in-range point is reported late and
    when the budget runs out first."""
    origin = np.zeros(D, dtype=np.int8)
    far = origin.copy()
    far[:6] = 1                                   # distance 6: in range
    near = origin.copy()
    near[7] = 1                                   # distance 7 from far
    points = np.stack([origin, origin, far])
    index = _build(points, 4, 2.0, (5.5, 6.5), 1, backend, seed=19)
    queries = np.stack([origin, origin, near])
    batched = _assert_batch_equals_loop(index, queries)
    repeats = [r for r in batched if r.stats.retrieved > r.stats.unique_candidates]
    assert any(r.found for r in repeats), [r.stats for r in batched]
    assert any(r.stats.truncated for r in repeats), [r.stats for r in batched]
