"""Budget edge cases for the Theorem 6.1 early-termination device.

Covers, on both storage backends: a zero budget (degenerate truncation at
the first table), a budget landing exactly on a table boundary, exact-hit
truncation in the batched hits path, and the laziness contract — tables
past the stopping point must never even be *hashed*.
"""

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.family import DSHFamily, HashPair
from repro.families.bit_sampling import BitSampling
from repro.index import DSHIndex, clip_batch_hits
from repro.serving import ShardedIndex
from repro.spaces import hamming

BACKENDS = ["dict", "packed"]


class CountingFamily(DSHFamily):
    """Wraps a family, counting query-side hash evaluations."""

    def __init__(self, base):
        self.base = base
        self.query_hashes = 0

    def sample(self, rng=None):
        inner = self.base.sample(rng)
        outer = self

        def g(points):
            outer.query_hashes += 1
            return inner.g(points)

        return HashPair(h=inner.h, g=g, meta=inner.meta)


def _full_bucket_index(n_points, n_tables, backend, d=8, rng=0):
    """All-identical points: every table has one bucket of size n_points,
    so retrieval counts per table are exact and predictable."""
    points = np.zeros((n_points, d), dtype=np.int8)
    index = DSHIndex(
        BitSampling(d), n_tables=n_tables, rng=rng, backend=backend
    ).build(points)
    return index, points


class TestZeroBudget:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_query(self, backend):
        index, points = _full_bucket_index(10, 5, backend)
        candidates, stats = index.query(points[0], max_retrieved=0)
        # The reference scan consumes the first table, then notices the
        # budget is already spent: one table probed, marked truncated.
        assert stats.truncated
        assert stats.tables_probed == 1
        assert stats.retrieved == 10
        assert candidates == list(range(10))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_query(self, backend):
        index, points = _full_bucket_index(10, 5, backend)
        for candidates, stats in index.batch_query(points[:3], max_retrieved=0):
            assert stats.truncated and stats.tables_probed == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_hits_zero_budget(self, backend):
        index, points = _full_bucket_index(10, 5, backend)
        block = index.batch_query_hits(points[:3], max_hits=0)
        assert block.hits.size == 0
        assert block.truncated.all()
        np.testing.assert_array_equal(block.offsets, [0, 0, 0, 0])


class TestTableBoundaryBudget:
    """Budgets that land exactly on a table boundary: the scan must stop
    *at* the boundary table (it is the truncating table), not after one
    more."""

    N, L = 12, 6

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k_tables", [1, 2, 5, 6])
    def test_exact_boundary(self, backend, k_tables):
        index, points = _full_bucket_index(self.N, self.L, backend)
        budget = self.N * k_tables  # exactly k full tables
        _, stats = index.query(points[0], max_retrieved=budget)
        assert stats.retrieved == budget
        assert stats.tables_probed == k_tables
        # Reaching the budget exactly counts as truncation even at the
        # last table (the scan cannot know no more hits would follow).
        assert stats.truncated

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_past_boundary(self, backend):
        index, points = _full_bucket_index(self.N, self.L, backend)
        _, stats = index.query(points[0], max_retrieved=self.N + 1)
        # One hit beyond a full table forces the whole next table in.
        assert stats.tables_probed == 2
        assert stats.retrieved == 2 * self.N

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_single_at_boundaries(self, backend):
        index, points = _full_bucket_index(self.N, self.L, backend)
        queries = points[:4]
        for budget in [self.N - 1, self.N, self.N + 1, self.N * self.L,
                       self.N * self.L + 1]:
            batched = index.batch_query(queries, max_retrieved=budget)
            for i in range(queries.shape[0]):
                assert index.query(queries[i], max_retrieved=budget) == batched[i]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_hits_exact_clip(self, backend):
        """batch_query_hits truncates at *hit* granularity: a budget of
        one-and-a-half tables yields exactly that many hits."""
        index, points = _full_bucket_index(self.N, self.L, backend)
        max_hits = self.N + self.N // 2
        block = index.batch_query_hits(points[:2], max_hits=max_hits)
        for i in range(2):
            assert block.segment(i).size == max_hits
            assert block.truncated[i]
            np.testing.assert_array_equal(
                block.table_counts[i], [self.N, self.N // 2, 0, 0, 0, 0]
            )
            assert block.table_of(i, max_hits - 1) == 1


class TestOneBudget:
    """``max_retrieved=1``: the smallest budget that still demands a hit.
    Any non-empty first table overshoots it, so the scan must stop at
    whichever table first yields anything."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_query(self, backend):
        index, points = _full_bucket_index(10, 5, backend)
        candidates, stats = index.query(points[0], max_retrieved=1)
        assert stats.truncated
        assert stats.tables_probed == 1
        assert stats.retrieved == 10  # the whole truncating table counts
        assert candidates == list(range(10))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_single(self, backend):
        index, points = _full_bucket_index(10, 5, backend)
        batched = index.batch_query(points[:4], max_retrieved=1)
        for i in range(4):
            assert index.query(points[i], max_retrieved=1) == batched[i]

    def test_backends_agree_on_mixed_buckets(self):
        points = hamming.random_points(60, 10, rng=4)
        queries = hamming.random_points(8, 10, rng=5)
        results = {}
        for backend in BACKENDS:
            index = DSHIndex(
                BitSampling(10), n_tables=6, rng=2, backend=backend
            ).build(points)
            results[backend] = index.batch_query(queries, max_retrieved=1)
        assert results["dict"] == results["packed"]


class TestFullTableCountsContract:
    """``BatchHits.full_table_counts`` carries the *pre-clip* per-table
    counts whenever ``max_hits`` clipped the stream — the sharded merge
    relies on it to reconstruct exact merged truncation."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_none_without_max_hits(self, backend):
        index, points = _full_bucket_index(10, 4, backend)
        block = index.batch_query_hits(points[:3])
        assert block.full_table_counts is None
        # The property falls back to the (identical) clipped counts.
        np.testing.assert_array_equal(
            block.pre_clip_table_counts, block.table_counts
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_counts_are_the_unclipped_counts(self, backend):
        index, points = _full_bucket_index(10, 4, backend)
        unclipped = index.batch_query_hits(points[:3])
        clipped = index.batch_query_hits(points[:3], max_hits=15)
        assert clipped.full_table_counts is not None
        np.testing.assert_array_equal(
            clipped.full_table_counts, unclipped.table_counts
        )
        np.testing.assert_array_equal(
            clipped.pre_clip_table_counts, unclipped.table_counts
        )
        # The clipped counts sum to exactly the cap for every query.
        np.testing.assert_array_equal(
            clipped.table_counts.sum(axis=1), [15, 15, 15]
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_hits_on_exact_table_boundary(self, backend):
        index, points = _full_bucket_index(10, 4, backend)
        block = index.batch_query_hits(points[:2], max_hits=20)  # = 2 tables
        for i in range(2):
            assert block.segment(i).size == 20
            np.testing.assert_array_equal(
                block.table_counts[i], [10, 10, 0, 0]
            )
            np.testing.assert_array_equal(
                block.full_table_counts[i], [10, 10, 10, 10]
            )

    def test_backends_agree_on_both_fields(self):
        points = hamming.random_points(80, 10, rng=7)
        queries = hamming.random_points(6, 10, rng=8)
        blocks = {}
        for backend in BACKENDS:
            index = DSHIndex(
                BitSampling(10), n_tables=5, rng=3, backend=backend
            ).build(points)
            blocks[backend] = index.batch_query_hits(queries, max_hits=7)
        np.testing.assert_array_equal(
            blocks["dict"].table_counts, blocks["packed"].table_counts
        )
        np.testing.assert_array_equal(
            blocks["dict"].full_table_counts,
            blocks["packed"].full_table_counts,
        )
        np.testing.assert_array_equal(
            blocks["dict"].hits, blocks["packed"].hits
        )


class TestClipBatchHits:
    """Unit tests for ``clip_batch_hits``, the reference table-granularity
    clip that every budgeted probe must equal."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_direct_budget_scan(self, backend):
        points = hamming.random_points(70, 10, rng=9)
        queries = hamming.random_points(6, 10, rng=10)
        index = DSHIndex(
            BitSampling(10), n_tables=6, rng=1, backend=backend
        ).build(points)
        full = index.batch_query_hits(queries)
        for budget in [0, 1, 5, 30, 10_000]:
            clipped = clip_batch_hits(full, index.n_tables, budget)
            np.testing.assert_array_equal(
                clipped.pre_clip_table_counts, full.table_counts
            )
            # Every kept hit sits in a table at or before the stopping
            # table the un-sharded budget scan would have probed.
            for i in range(queries.shape[0]):
                _, stats = index.query(queries[i], max_retrieved=budget)
                kept = clipped.table_counts[i]
                assert (kept[stats.tables_probed:] == 0).all()
                assert kept.sum() == stats.retrieved

    def test_budget_zero_keeps_first_table(self):
        index, points = _full_bucket_index(10, 4, "packed")
        clipped = clip_batch_hits(
            index.batch_query_hits(points[:2]), index.n_tables, 0
        )
        np.testing.assert_array_equal(clipped.table_counts[0], [10, 0, 0, 0])
        assert clipped.truncated.all()
        np.testing.assert_array_equal(clipped.segment(0), np.arange(10))

    def test_budget_on_table_boundary(self):
        index, points = _full_bucket_index(10, 4, "packed")
        clipped = clip_batch_hits(
            index.batch_query_hits(points[:1]), index.n_tables, 20
        )
        np.testing.assert_array_equal(clipped.table_counts[0], [10, 10, 0, 0])
        assert clipped.truncated[0]  # exactly-met budget counts as truncation

    def test_none_budget_is_identity(self):
        index, points = _full_bucket_index(10, 4, "packed")
        block = index.batch_query_hits(points[:2])
        assert clip_batch_hits(block, index.n_tables, None) is block

    def test_double_clip_rejected(self):
        index, points = _full_bucket_index(10, 4, "packed")
        clipped = clip_batch_hits(
            index.batch_query_hits(points[:2]), index.n_tables, 5
        )
        with pytest.raises(ValueError, match="unclipped"):
            clip_batch_hits(clipped, index.n_tables, 5)


class TestHashLaziness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_single_query_stops_hashing(self, backend):
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=8, rng=0, backend=backend).build(points)
        family.query_hashes = 0
        _, stats = index.query(points[0], max_retrieved=1)
        assert stats.truncated and stats.tables_probed == 1
        assert family.query_hashes == 1  # tables 2..8 never hashed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_iter_candidates_is_lazy(self, backend):
        """Consuming a prefix of the candidate stream must hash only the
        tables actually reached — the annulus search contract."""
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=8, rng=0, backend=backend).build(points)
        family.query_hashes = 0
        stream = index.iter_candidates(points[0])
        for _ in range(5):  # 5 hits < 20 per table: still inside table 1
            next(stream)
        assert family.query_hashes == 1
        # Draining into table 2 hashes exactly one more table.
        for _ in range(20):
            next(stream)
        assert family.query_hashes == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_untruncated_query_hashes_every_table(self, backend):
        family = CountingFamily(BitSampling(8))
        points = hamming.random_points(30, 8, rng=1)
        index = DSHIndex(family, n_tables=6, rng=0, backend=backend).build(points)
        family.query_hashes = 0
        index.query(points[0])
        assert family.query_hashes == 6


SURFACES = ["dict", "packed", "sharded-inprocess", "sharded-loaded"]


@pytest.fixture(scope="module")
def budget_surfaces(tmp_path_factory):
    """One clustered bit-sampling point set served by every surface that
    takes a ``max_retrieved`` budget — a sharded index both as built and
    as loaded back from its memory-mapped shard files — plus the packed
    unsharded index as the reference."""
    rng = np.random.default_rng(3)
    prototypes = hamming.random_points(4, 16, rng=rng)
    points = prototypes[rng.integers(0, 4, size=60)]
    spec = IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": 16, "power": 3},
        n_tables=6,
        backend="packed",
        seed=5,
    )
    surfaces = {
        backend: DSHIndex(
            BitSampling(16), n_tables=6, rng=0, backend=backend
        ).build(points)
        for backend in BACKENDS
    }
    sharded_spec = IndexSpec.from_dict({**spec.to_dict(), "shards": 2})
    surfaces["sharded-inprocess"] = ShardedIndex(points, sharded_spec)
    path = tmp_path_factory.mktemp("budget") / "srv"
    surfaces["sharded-inprocess"].save(path)
    surfaces["sharded-loaded"] = ShardedIndex.load(path)
    flat = spec.build(points)
    references = {
        "dict": surfaces["packed"],
        "packed": surfaces["dict"],
        "sharded-inprocess": flat,
        "sharded-loaded": flat,
    }
    return surfaces, references, points


class TestBudgetValidation:
    """Every surface rejects a budget that is not ``None`` or a
    non-negative integer, the same way, before any probing: a float is not compared as a float, and a negative budget
    is not answered as a one-table probe."""

    @pytest.mark.parametrize("surface", SURFACES)
    @pytest.mark.parametrize(
        "budget, error",
        [(2.5, TypeError), (np.float64(3.0), TypeError), ("8", TypeError),
         (-1, ValueError), (np.int64(-3), ValueError)],
        ids=["float", "np-float", "str", "negative", "np-negative"],
    )
    def test_rejects_bad_budget(
        self, budget_surfaces, surface, budget, error
    ):
        surfaces, _, points = budget_surfaces
        index = surfaces[surface]
        with pytest.raises(error, match="max_retrieved"):
            index.query(points[0], max_retrieved=budget)
        with pytest.raises(error, match="max_retrieved"):
            index.batch_query(points[:3], max_retrieved=budget)

    @pytest.mark.parametrize("surface", SURFACES)
    def test_integer_like_budgets_answer_as_ints(
        self, budget_surfaces, surface
    ):
        surfaces, references, points = budget_surfaces
        index, reference = surfaces[surface], references[surface]
        for budget in (0, 7, np.int64(7), np.int32(40)):
            assert index.batch_query(
                points[:5], max_retrieved=budget
            ) == reference.batch_query(points[:5], max_retrieved=int(budget))
            assert index.query(
                points[0], max_retrieved=budget
            ) == reference.query(points[0], max_retrieved=int(budget))
