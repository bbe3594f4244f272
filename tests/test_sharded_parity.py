"""Sharded serving: entry points, the merged budget clip, lifecycle and
spec validation.

Whether a sharded index, built or loaded, answers exactly like the
unsharded one (global ids, first-seen order, merged budgets) is checked
by the generated oracle (``tests/test_oracle.py``).  The cases here
compare against the unsharded index on one fixed clustered set where a
test needs answers at all.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.api import IndexSpec, build_index, load_index
from repro.index import backends
from repro.serving import ServingOptions, ShardedIndex, shard_bounds
from repro.spaces import hamming

N_POINTS = 257  # deliberately not divisible by the shard counts
N_TABLES = 8
D = 24
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

class TestLoadedServing:
    """A loaded sharded index opens its shards in the calling process,
    whatever ``workers`` says, and answers exactly like the unsharded
    index."""

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


class TestMergedBudgetClip:
    def test_shards_gather_only_the_merged_budget_buckets(
        self, data, monkeypatch
    ):
        """A budgeted sharded probe clips once, on the shards' summed
        per-table counts, before any gather: each shard gathers exactly
        its buckets in the tables the unsharded scan probes, and together
        they gather the unsharded clipped count."""
        points, queries = data
        budget = 40
        sharded = ShardedIndex(points, _spec(shards=4))
        expected = _spec().build(points).batch_query(
            queries, max_retrieved=budget
        )
        comps = sharded._shards[0]._query_components(queries)
        included = [
            sum(
                int(counts[: r.stats.tables_probed].sum())
                for counts, r in zip(
                    shard._backend.batch_query_hits(comps).table_counts,
                    expected,
                )
            )
            for shard in sharded._shards
        ]
        assert sum(included) == sum(r.stats.retrieved for r in expected)

        gathered = [0] * len(sharded._shards)
        original = backends.segment_gather

        def counting_gather(values, starts, lengths):
            for s, shard in enumerate(sharded._shards):
                if values is shard._backend._ids:
                    gathered[s] += int(np.sum(lengths))
            return original(values, starts, lengths)

        monkeypatch.setattr(backends, "segment_gather", counting_gather)
        observed = sharded.batch_query(queries, max_retrieved=budget)
        assert gathered == included
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

    def test_rejects_sharding_the_dict_layout(self, data):
        with pytest.raises(ValueError, match="backend='packed'"):
            _spec(backend="dict", shards=2)
        points, _ = data
        with pytest.raises(ValueError, match="packed shards only"):
            ShardedIndex(points, _spec(backend="dict"))

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
