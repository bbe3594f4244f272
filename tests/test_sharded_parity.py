"""Differential parity suite: sharded vs unsharded serving.

A :class:`~repro.serving.sharded.ShardedIndex` must be *observably
identical* to the unsharded index over the same points and spec — global
candidate ids, first-seen dedup order, and summed :class:`QueryStats`,
including the Theorem 6.1 ``max_retrieved`` budget applied to the merged
per-table counts.  The unsharded index is the reference; the suite sweeps
shard counts (with uneven splits), both storage backends, budget edges,
and save→load revivals.
"""

import dataclasses
import multiprocessing

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


class TestLoadedServing:
    """A loaded sharded index opens its shards in the calling process,
    whatever ``workers`` says, and answers exactly like the unsharded
    index."""

    @pytest.mark.parametrize("backend", ["dict", "packed"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_loaded_parity_across_budgets(
        self, data, tmp_path, backend, shards
    ):
        points, queries = data
        flat = _spec(backend).build(points)
        ShardedIndex(points, _spec(backend, shards)).save(tmp_path / "srv")
        served = load_index(tmp_path / "srv")
        assert served.n_shards == shards
        assert served.backend == backend
        np.testing.assert_array_equal(
            served.bounds, shard_bounds(N_POINTS, shards)
        )
        for budget in BUDGETS:
            _assert_results_equal(
                flat.batch_query(queries, max_retrieved=budget),
                served.batch_query(queries, max_retrieved=budget),
            )
        for q in queries[:4]:
            assert flat.query(q, max_retrieved=10) == served.query(
                q, max_retrieved=10
            )

    @pytest.mark.parametrize("verify", ["off", "lazy", "eager"])
    def test_every_verify_level_serves_identically(
        self, data, tmp_path, verify
    ):
        points, queries = data
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=3)).save(tmp_path / "srv")
        served = load_index(
            tmp_path / "srv", options=ServingOptions(verify=verify)
        )
        assert served.options.verify == verify
        assert served.health()["verify"] == verify
        _assert_results_equal(
            flat.batch_query(queries, max_retrieved=17),
            served.batch_query(queries, max_retrieved=17),
        )

    def test_loaded_index_resaves(self, data, tmp_path):
        """A loaded index holds its shards as ordinary indexes, so it can
        be saved again; the copy loads back to the same answers."""
        points, queries = data
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=3)).save(tmp_path / "srv")
        served = load_index(tmp_path / "srv")
        manifest = served.save(tmp_path / "copy")
        assert manifest.name == "copy.json"
        copy = load_index(tmp_path / "copy")
        assert copy.spec == served.spec
        np.testing.assert_array_equal(copy.bounds, served.bounds)
        _assert_results_equal(
            flat.batch_query(queries, max_retrieved=23),
            copy.batch_query(queries, max_retrieved=23),
        )

    def test_eager_load_survives_files_rewritten_underneath(
        self, data, tmp_path
    ):
        """``mmap=False`` reads every shard into memory at load time: the
        index keeps answering from that snapshot after the files are
        replaced, and a fresh load serves the replacement."""
        points, queries = data
        rng = np.random.default_rng(99)
        replacement = _clustered_points(N_POINTS, rng)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        served = load_index(
            tmp_path / "srv", options=ServingOptions(mmap=False)
        )
        ShardedIndex(replacement, _spec(shards=2)).save(tmp_path / "srv")
        _assert_results_equal(
            _spec().build(points).batch_query(queries),
            served.batch_query(queries),
        )
        _assert_results_equal(
            _spec().build(replacement).batch_query(queries),
            load_index(tmp_path / "srv").batch_query(queries),
        )

    def test_workers_option_starts_no_process(self, data, tmp_path):
        points, queries = data
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=3)).save(tmp_path / "srv")
        served = ShardedIndex.load(
            tmp_path / "srv", options=ServingOptions(workers=2)
        )
        for budget in BUDGETS:
            _assert_results_equal(
                flat.batch_query(queries, max_retrieved=budget),
                served.batch_query(queries, max_retrieved=budget),
            )
        assert flat.query(queries[0]) == served.query(queries[0])
        assert multiprocessing.active_children() == []

    def test_benchmark_records_are_fixed(self, data, tmp_path):
        points, queries = data
        ShardedIndex(points, _spec(shards=3)).save(tmp_path / "srv")
        served = load_index(tmp_path / "srv")
        served.batch_query(queries, max_retrieved=5)
        assert served.last_transport == {
            "pipe_bytes": 0, "shm_bytes": 0, "tasks": 3,
        }
        assert served.last_health == {"retries": 0, "respawns": 0}
        assert not any(
            r.stats.degraded for r in served.batch_query(queries)
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


class TestLifecycle:
    def test_close_is_a_noop(self, data, tmp_path):
        points, queries = data
        flat = _spec().build(points)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        with load_index(tmp_path / "srv") as served:
            served.close()
            served.close()
        _assert_results_equal(
            flat.batch_query(queries), served.batch_query(queries)
        )

    def test_repr_names_the_shape(self, data):
        points, _ = data
        text = repr(ShardedIndex(points, _spec(shards=2)))
        assert text.startswith("ShardedIndex(shards=2, L=8")
        assert f"n_points={N_POINTS}" in text

    def test_loaded_repr_matches_built(self, data, tmp_path):
        points, _ = data
        built = ShardedIndex(points, _spec(shards=2))
        built.save(tmp_path / "srv")
        assert repr(load_index(tmp_path / "srv")) == repr(built)


class TestEmptyShardContribution:
    """A shard whose buckets never match the query (zero counts in every
    table) must vanish from the merge without perturbing order, stats, or
    budgets — checked differentially against the dict backend's reference
    ``_scan``, for a built and a loaded sharded index."""

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

    @pytest.mark.parametrize("budget", [None, 0, 1, 15, 40])
    def test_loaded(self, split_data, tmp_path, budget):
        points, queries = split_data
        reference = _spec("dict").build(points)
        ShardedIndex(points, _spec(shards=2)).save(tmp_path / "srv")
        served = load_index(tmp_path / "srv")
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
