"""Generated differential test of the sharded merge.

``_merge_blocks`` interleaves per-(shard, chunk) hit streams back into the
unsharded probe order in one vectorised gather.  Hypothesis draws the
shapes that example-based suites only reach through the process pool:
1–4 contiguous shards (1-point shards included), an independent query
chunking per shard, worker-side clipping on or off, Theorem 6.1 budgets
from 0 to unbounded, and query blocks whose buckets are often empty.  The
merge must equal the unsharded packed backend and the dict reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec
from repro.index.backends import clip_batch_hits
from repro.serving.sharded import _merge_blocks
from repro.spaces import hamming

D = 16
N_TABLES = 5
BUDGETS = [None, 0, 1, 8 * N_TABLES, 10**9]


def _spec(backend="packed"):
    # 2**6 buckets per table over at most 40 points: random queries
    # routinely land in empty buckets.
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 6},
        n_tables=N_TABLES,
        backend=backend,
        seed=3,
    )


def _split(draw, size, parts):
    """Sorted boundaries ``[0, ..., size]`` splitting ``range(size)`` into
    ``parts`` non-empty contiguous parts."""
    inner = (
        draw(
            st.sets(
                st.integers(1, size - 1),
                min_size=parts - 1,
                max_size=parts - 1,
            )
        )
        if parts > 1
        else set()
    )
    return [0, *sorted(inner), size]


@st.composite
def merge_cases(draw):
    n_shards = draw(st.integers(1, 4))
    n_points = draw(st.integers(n_shards, 40))
    bounds = _split(draw, n_points, n_shards)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prototypes = hamming.random_points(4, D, rng=rng)
    points = prototypes[rng.integers(0, 4, size=n_points)]
    points = points ^ (rng.random(points.shape) < 0.05).astype(points.dtype)
    n_queries = draw(st.integers(1, 12))
    from_data = np.asarray(
        draw(st.lists(st.booleans(), min_size=n_queries, max_size=n_queries))
    )
    queries = hamming.random_points(n_queries, D, rng=rng)
    picks = rng.integers(0, n_points, size=n_queries)
    queries[from_data] = points[picks[from_data]]
    chunkings = [
        _split(draw, n_queries, draw(st.integers(1, min(4, n_queries))))
        for _ in range(n_shards)
    ]
    clips = draw(
        st.lists(st.booleans(), min_size=n_shards, max_size=n_shards)
    )
    budget = draw(st.sampled_from(BUDGETS))
    return points, queries, bounds, chunkings, clips, budget


@given(merge_cases())
@settings(max_examples=80, deadline=None)
def test_merge_equals_unsharded_packed_and_dict(case):
    points, queries, bounds, chunkings, clips, budget = case
    packed = _spec().build(points)
    oracle = _spec("dict").build(points)
    comps = [pair.hash_query(queries) for pair in packed._pairs]

    blocks = []
    for s, (chunking, clip) in enumerate(zip(chunkings, clips)):
        shard = _spec().build(points[bounds[s] : bounds[s + 1]])
        chunks = []
        for lo, hi in zip(chunking[:-1], chunking[1:]):
            # As a pool worker answers one (shard, chunk) task.
            block = shard.batch_query_hits(queries[lo:hi])
            chunks.append(
                clip_batch_hits(block, N_TABLES, budget) if clip else block
            )
        blocks.append(chunks)

    merged = _merge_blocks(
        blocks, bounds[:-1], N_TABLES, points.shape[0], budget
    )
    assert merged == packed._backend.batch_query(comps, budget)
    assert merged == oracle._backend.batch_query(comps, budget)
