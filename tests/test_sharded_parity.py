"""Differential parity suite: sharded vs unsharded serving.

A :class:`~repro.serving.sharded.ShardedIndex` must be *observably
identical* to the unsharded index over the same points and spec — global
candidate ids, first-seen dedup order, and summed :class:`QueryStats`,
including the Theorem 6.1 ``max_retrieved`` budget applied to the merged
per-table counts.  The unsharded index is the reference; the suite sweeps
shard counts (with uneven splits), both storage backends, budget edges,
save→load revivals, and process-pool serving.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import IndexSpec, build_index, load_index, save_index
from repro.index import backends
from repro.index.backends import clip_batch_hits
from repro.serving import ServingOptions, ShardedIndex, shard_bounds
from repro.spaces import hamming

N_POINTS = 257  # deliberately not divisible by the shard counts
N_TABLES = 8
D = 24
SHARD_COUNTS = [1, 2, 3, 5]
BUDGETS = [None, 0, 1, 5, 40, 8 * N_TABLES]


def _clustered_points(n, rng):
    """Noisy copies of shared prototypes, so buckets span shard boundaries
    and dedup order genuinely crosses shards."""
    prototypes = hamming.random_points(10, D, rng=rng)
    rows = prototypes[rng.integers(0, prototypes.shape[0], size=n)]
    return rows ^ (rng.random(size=rows.shape) < 0.02).astype(np.int8)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    points = _clustered_points(N_POINTS, rng)
    queries = np.concatenate([points[:8], _clustered_points(8, rng)])
    return points, queries


def _spec(backend="packed", shards=1):
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 4},
        n_tables=N_TABLES,
        backend=backend,
        seed=11,
        shards=shards,
    )


def _assert_results_equal(reference, sharded):
    assert len(reference) == len(sharded)
    for a, b in zip(reference, sharded):
        assert a.indices == b.indices
        assert a.stats == b.stats


class TestShardedVsUnsharded:
    @pytest.mark.parametrize("backend", ["dict", "packed"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_query_parity(self, data, backend, shards):
        points, queries = data
        flat = _spec(backend).build(points)
        sharded = ShardedIndex(points, _spec(backend, shards))
        assert sharded.n_points == flat.n_points
        for budget in BUDGETS:
            _assert_results_equal(
                flat.batch_query(queries, max_retrieved=budget),
                sharded.batch_query(queries, max_retrieved=budget),
            )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_single_query_parity(self, data, shards):
        points, queries = data
        flat = _spec().build(points)
        sharded = ShardedIndex(points, _spec(shards=shards))
        for q in queries[:4]:
            assert flat.query(q) == sharded.query(q)
            assert flat.query(q, max_retrieved=10) == sharded.query(
                q, max_retrieved=10
            )

    def test_spec_build_returns_sharded_index(self, data):
        points, queries = data
        sharded = _spec(shards=3).build(points)
        assert isinstance(sharded, ShardedIndex)
        assert sharded.n_shards == 3
        _assert_results_equal(
            _spec().build(points).batch_query(queries),
            sharded.batch_query(queries),
        )

    def test_build_index_entry_point(self, data):
        points, queries = data
        sharded = build_index(
            points, kind="raw", family="bit_sampling", power=4,
            n_tables=N_TABLES, rng=11, shards=2, workers=2,
        )
        assert isinstance(sharded, ShardedIndex)
        flat = build_index(
            points, kind="raw", family="bit_sampling", power=4,
            n_tables=N_TABLES, rng=11,
        )
        _assert_results_equal(
            flat.batch_query(queries), sharded.batch_query(queries)
        )

    def test_threaded_build_matches_serial(self, data):
        points, queries = data
        serial = ShardedIndex(points, _spec(shards=3))
        threaded = ShardedIndex(points, _spec(shards=3), build_workers=3)
        _assert_results_equal(
            serial.batch_query(queries), threaded.batch_query(queries)
        )

    def test_dsh_build_workers_matches_serial(self, data):
        points, queries = data
        serial = _spec().build(points)
        threaded = _spec().build(points, workers=4)
        _assert_results_equal(
            serial.batch_query(queries), threaded.batch_query(queries)
        )


class TestShardedPersistence:
    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "eager"])
    def test_save_load_in_process_parity(self, data, tmp_path, mmap):
        points, queries = data
        flat = _spec().build(points)
        sharded = ShardedIndex(points, _spec(shards=3))
        manifest = save_index(sharded, tmp_path / "srv")
        assert manifest.name == "srv.json"
        loaded = load_index(tmp_path / "srv", options=ServingOptions(mmap=mmap))
        assert isinstance(loaded, ShardedIndex)
        assert loaded.n_shards == 3
        assert loaded.spec == sharded.spec
        for budget in (None, 17):
            _assert_results_equal(
                flat.batch_query(queries, max_retrieved=budget),
                loaded.batch_query(queries, max_retrieved=budget),
            )

    def test_pool_serving_parity(self, data, tmp_path):
        points, queries = data
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=2)) as pool_index:
            # Twice: the second call exercises the worker-side shard cache.
            for _ in range(2):
                _assert_results_equal(
                    flat.batch_query(queries, max_retrieved=23),
                    pool_index.batch_query(queries, max_retrieved=23),
                )
            assert flat.query(queries[0]) == pool_index.query(queries[0])

    def test_pool_mode_cannot_resave(self, data, tmp_path):
        points, _ = data
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=1)) as pool_index:
            with pytest.raises(ValueError, match="already-saved"):
                pool_index.save(tmp_path / "other")

    def test_closed_pool_index_raises_clearly(self, data, tmp_path):
        points, queries = data
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        pool_index = load_index(tmp_path / "srv", options=ServingOptions(workers=1))
        pool_index.close()
        with pytest.raises(ValueError, match="closed"):
            pool_index.batch_query(queries)

    def test_pool_honours_eager_loading(self, data, tmp_path):
        """mmap=False must reach the workers, so serving survives the shard
        files being rewritten underneath it."""
        points, queries = data
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=1, mmap=False)) as served:
            _assert_results_equal(
                flat.batch_query(queries), served.batch_query(queries)
            )


class TestPoolTransport:
    """Worker-side clipping and query chunking must be invisible to
    correctness: pool results pickled back through the executor pipe
    equal the unsharded index's, for every budget and pool shape."""

    @pytest.mark.parametrize(
        "shards, workers", [(2, 1), (3, 2)], ids=["2x1", "3x2"]
    )
    def test_pool_parity_across_budgets(self, data, tmp_path, shards, workers):
        points, queries = data
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=shards)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=workers)) as served:
            for budget in BUDGETS:
                _assert_results_equal(
                    flat.batch_query(queries, max_retrieved=budget),
                    served.batch_query(queries, max_retrieved=budget),
                )
                assert served.last_transport["pipe_bytes"] > 0

    def test_query_chunking_parity(self, data, tmp_path):
        """A block large enough to chunk must split into multiple
        (shard, chunk) tasks and still merge exactly."""
        points, _ = data
        rng = np.random.default_rng(5)
        queries = _clustered_points(80, rng)
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=2)) as served:
            _assert_results_equal(
                flat.batch_query(queries, max_retrieved=40),
                served.batch_query(queries, max_retrieved=40),
            )
            assert served.last_transport["chunks"] >= 2
            assert served.last_transport["tasks"] == (
                served.last_transport["chunks"] * served.n_shards
            )

    def test_worker_clip_shrinks_payload(self, data, tmp_path):
        """A tight budget must reduce what workers ship, not just what the
        merge keeps."""
        points, queries = data
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=1)) as served:
            served.batch_query(queries)
            unclipped = served.last_transport["pipe_bytes"]
            served.batch_query(queries, max_retrieved=1)
            clipped = served.last_transport["pipe_bytes"]
        assert clipped < unclipped

    def test_stale_shard_cache_evicted_on_resave(self, data, tmp_path):
        """Hot swap: re-saving shard files under a live pool must evict the
        per-worker mmap cache, not keep answering from the old bytes."""
        points, queries = data
        rng = np.random.default_rng(99)
        replacement = _clustered_points(N_POINTS, rng)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=1)) as served:
            _assert_results_equal(
                _spec().build(points).batch_query(queries),
                served.batch_query(queries),  # warms the worker cache
            )
            ShardedIndex(replacement, _spec(shards=2)).save(tmp_path / "srv")
            _assert_results_equal(
                _spec().build(replacement).batch_query(queries),
                served.batch_query(queries),
            )


class TestShardLocalClip:
    def test_budgeted_shards_gather_only_clipped_hits(
        self, data, monkeypatch
    ):
        """A budgeted in-process probe clips each shard on its count
        matrix before the gather: the backends gather exactly the
        shard-local clipped hits, never the full streams."""
        points, queries = data
        budget = 40
        sharded = ShardedIndex(points, _spec(shards=4))
        comps = sharded._shards[0]._query_components(queries)
        streams = [
            shard._backend.batch_query_hits(comps) for shard in sharded._shards
        ]
        clipped = sum(
            clip_batch_hits(block, N_TABLES, budget).hits.size
            for block in streams
        )
        unbudgeted = sum(block.hits.size for block in streams)
        expected = _spec().build(points).batch_query(
            queries, max_retrieved=budget
        )

        gathered = []
        original = backends.segment_gather

        def counting_gather(values, starts, lengths):
            gathered.append(int(np.sum(lengths)))
            return original(values, starts, lengths)

        monkeypatch.setattr(backends, "segment_gather", counting_gather)
        observed = sharded.batch_query(queries, max_retrieved=budget)
        assert sum(gathered) == clipped < unbudgeted
        _assert_results_equal(expected, observed)


class TestPoolLifecycle:
    def test_close_is_idempotent(self, data, tmp_path):
        points, _ = data
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        served = load_index(tmp_path / "srv", options=ServingOptions(workers=1))
        pool = served._pool
        served.close()
        served.close()  # second close must be a clean no-op
        assert pool._shutdown_thread

    def test_dropped_handle_shuts_pool_down(self, data, tmp_path):
        """Forgetting close() must not leak worker processes: the finalize
        hook shuts the pool down when the index is collected."""
        import gc

        points, _ = data
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        served = load_index(tmp_path / "srv", options=ServingOptions(workers=1))
        pool = served._pool
        del served
        gc.collect()
        assert pool._shutdown_thread

    def test_repr_tracks_serving_mode(self, data, tmp_path):
        points, _ = data
        in_memory = ShardedIndex(points, _spec(shards=2))
        assert "in-process" in repr(in_memory)
        in_memory.save(tmp_path / "srv")
        served = load_index(tmp_path / "srv", options=ServingOptions(workers=2))
        assert "pool=2" in repr(served)
        served.close()
        assert "closed" in repr(served)


class TestEmptyShardContribution:
    """A shard whose buckets never match the query (zero counts in every
    table) must vanish from the merge without perturbing order, stats, or
    budgets — checked differentially against the dict backend's reference
    ``_scan`` in both sharded modes."""

    @pytest.fixture(scope="class")
    def split_data(self):
        # First half all-zeros, second half all-ones: with 2 contiguous
        # shards, an all-zeros query only ever hits shard 0's buckets.
        points = np.concatenate([
            np.zeros((40, D), dtype=np.int8),
            np.ones((40, D), dtype=np.int8),
        ])
        queries = np.concatenate([
            np.zeros((2, D), dtype=np.int8),
            np.ones((2, D), dtype=np.int8),
        ])
        return points, queries

    @pytest.mark.parametrize("budget", [None, 0, 1, 15, 40])
    def test_in_process(self, split_data, budget):
        points, queries = split_data
        reference = _spec("dict").build(points)  # funnels through _scan
        sharded = ShardedIndex(points, _spec(shards=2))
        _assert_results_equal(
            reference.batch_query(queries, max_retrieved=budget),
            sharded.batch_query(queries, max_retrieved=budget),
        )

    def test_pool(self, split_data, tmp_path):
        points, queries = split_data
        reference = _spec("dict").build(points)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv", options=ServingOptions(workers=1)) as served:
            for budget in (None, 0, 1, 15, 40):
                _assert_results_equal(
                    reference.batch_query(queries, max_retrieved=budget),
                    served.batch_query(queries, max_retrieved=budget),
                )


class TestSpecValidation:
    def test_shards_roundtrip_through_dict(self):
        spec = _spec(shards=4)
        assert IndexSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["shards"] == 4

    def test_shards_default_is_one(self):
        data = _spec().to_dict()
        data.pop("shards")
        assert IndexSpec.from_dict(data).shards == 1

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            _spec(shards=0)

    def test_rejects_sharding_without_seed(self):
        with pytest.raises(ValueError, match="fixed integer seed"):
            dataclasses.replace(_spec(shards=2), seed=None)

    def test_rejects_sharding_non_raw_kinds(self):
        with pytest.raises(ValueError, match="kind='raw'"):
            IndexSpec(
                kind="annulus",
                family="annulus_sphere",
                family_params={"d": 8, "alpha_max": 0.3, "t": 1.5},
                n_tables=4,
                seed=0,
                shards=2,
                options={"interval": (0.2, 0.6)},
            )


class TestShardBounds:
    def test_contiguous_and_balanced(self):
        bounds = shard_bounds(257, 5)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == 257
        assert sizes.min() >= 1
        assert sizes.max() - sizes.min() <= 1

    def test_rejects_more_shards_than_points(self):
        with pytest.raises(ValueError, match="non-empty"):
            shard_bounds(3, 4)

    def test_query_dimensionality_validated(self, data):
        points, _ = data
        sharded = ShardedIndex(points, _spec(shards=2))
        with pytest.raises(ValueError, match="dimensionality"):
            sharded.batch_query(np.zeros((2, D + 1), dtype=np.int8))
