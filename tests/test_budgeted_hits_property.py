"""Generated differential test of the budgeted shard probe.

``IndexBackend.budgeted_hits`` is the one table-granularity budgeted probe
behind the packed ``batch_query`` and every shard of a ``ShardedIndex``;
the packed version clips on the count matrix before it gathers.
Hypothesis draws the backend, ``L``, ``n`` (1-point shards included),
query blocks with repeated rows and empty buckets, and Theorem 6.1
budgets from 0 to unbounded.  The budgeted probe must equal the
reference clip of the full stream (``clip_batch_hits``), and sharded
serving — in-process and through a one-worker pool — must equal the
unsharded index.
"""

import dataclasses
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec, load_index
from repro.index.backends import clip_batch_hits
from repro.serving import ServingOptions, ShardedIndex
from repro.spaces import hamming

D = 16


def _spec(backend, n_tables, shards=1):
    # 2**6 buckets per table over at most 40 points: random queries
    # routinely land in empty buckets.
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 6},
        n_tables=n_tables,
        backend=backend,
        seed=5,
        shards=shards,
    )


@st.composite
def probe_cases(draw):
    backend = draw(st.sampled_from(["dict", "packed"]))
    n_tables = draw(st.integers(1, 6))
    n_shards = draw(st.integers(1, 4))
    n_points = draw(st.integers(n_shards, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prototypes = hamming.random_points(4, D, rng=rng)
    points = prototypes[rng.integers(0, 4, size=n_points)]
    points = points ^ (rng.random(points.shape) < 0.05).astype(points.dtype)
    # A pool of distinct rows (data points and random points), then a
    # block that draws from it with repetition.
    pool = np.concatenate(
        [points[rng.integers(0, n_points, size=3)],
         hamming.random_points(3, D, rng=rng)]
    )
    rows = draw(st.lists(st.integers(0, pool.shape[0] - 1), min_size=1,
                         max_size=12))
    queries = pool[rows]
    budget = draw(st.sampled_from([None, 0, 1, 4 * n_tables, 10**9]))
    return backend, n_tables, n_shards, points, queries, budget


def _assert_same_block(observed, expected):
    """Field-by-field equality, hits compared as int64."""
    assert np.array_equal(
        observed.hits.astype(np.int64), expected.hits.astype(np.int64)
    )
    for field in ("offsets", "table_counts", "truncated"):
        assert np.array_equal(
            getattr(observed, field), getattr(expected, field)
        ), field
    if expected.full_table_counts is None:
        assert observed.full_table_counts is None
    else:
        assert np.array_equal(
            observed.full_table_counts, expected.full_table_counts
        )


def _assert_results_equal(reference, observed):
    assert len(reference) == len(observed)
    for a, b in zip(reference, observed):
        assert a.indices == b.indices
        assert a.stats == b.stats


@given(probe_cases())
@settings(max_examples=100, deadline=None)
def test_budgeted_hits_equals_reference_clip(case):
    backend, n_tables, n_shards, points, queries, budget = case
    sharded = ShardedIndex(points, _spec(backend, n_tables, n_shards))
    flat = _spec(backend, n_tables).build(points)
    comps = flat._query_components(queries)
    for index in [flat, *sharded._shards]:
        expected = clip_batch_hits(
            index._backend.batch_query_hits(comps), n_tables, budget
        )
        observed = index._backend.budgeted_hits(comps, budget)
        _assert_same_block(observed, expected)


@given(probe_cases())
@settings(max_examples=25, deadline=None)
def test_sharded_equals_unsharded_in_process_and_pool(case):
    backend, n_tables, n_shards, points, queries, budget = case
    spec = _spec(backend, n_tables, n_shards)
    reference = dataclasses.replace(spec, shards=1).build(points)
    expected = reference.batch_query(queries, max_retrieved=budget)
    sharded = ShardedIndex(points, spec)
    _assert_results_equal(
        expected, sharded.batch_query(queries, max_retrieved=budget)
    )
    with tempfile.TemporaryDirectory() as root:
        sharded.save(f"{root}/srv")
        options = ServingOptions(workers=1)
        with load_index(f"{root}/srv", options=options) as served:
            _assert_results_equal(
                expected, served.batch_query(queries, max_retrieved=budget)
            )
