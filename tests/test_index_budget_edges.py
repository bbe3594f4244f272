"""The Theorem 6.1 budget at the index boundary.

Covers, on both storage backends: the laziness contract (no table past
the probe wave that holds a row's cut or truncating table is ever
*hashed*; the dict reference walk hashes exactly the tables it reaches),
budget and ``max_hits``
validation on every surface that takes one, and the clip's rejection of an
already-clipped stream.  Which tables a budget probes, and what it returns, is checked by
the generated oracle (``tests/test_oracle.py``).
"""

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.family import DSHFamily, HashPair
from repro.families.bit_sampling import BitSampling
from repro.index import DSHIndex, clip_batch_hits
from repro.index.backends import WAVE
from repro.serving import ShardedIndex
from repro.spaces import hamming

BACKENDS = ["dict", "packed"]


class CountingFamily(DSHFamily):
    """Wraps a family, counting query-side hash evaluations and the query
    rows they hash."""

    def __init__(self, base):
        self.base = base
        self.query_hashes = 0
        self.query_rows = 0

    def sample(self, rng=None):
        inner = self.base.sample(rng)
        outer = self

        def g(points):
            outer.query_hashes += 1
            outer.query_rows += len(points)
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


class TestClipBatchHits:
    """Unit tests for ``clip_batch_hits``, the reference table-granularity
    clip that every budgeted probe must equal."""

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
        """The packed probe hashes the wave holding the truncating table;
        the dict reference walk hashes exactly the tables it reaches."""
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=8, rng=0, backend=backend).build(points)
        family.query_hashes = 0
        _, stats = index.query(points[0], max_retrieved=1)
        assert stats.truncated and stats.tables_probed == 1
        assert family.query_hashes == (min(8, WAVE) if backend == "packed" else 1)

    def test_budgeted_one_row_block_hashes_one_wave(self):
        """A single raw query is a one-row block: under a budget its
        tables past the first wave are never hashed."""
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=16, rng=0, backend="packed").build(points)
        family.query_rows = 0
        [result] = index.batch_query(points[:1], max_retrieved=60)
        assert result.stats.tables_probed == 3 and result.stats.truncated
        assert family.query_rows == WAVE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budgeted_block_retires_rows(self, backend):
        """In a 64-row block, rows that reach the budget in table 2 retire
        with the wave holding it (the dict walk: with table 2 itself);
        rows that collide with no point are hashed through every table."""
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=8, rng=0, backend=backend).build(points)
        queries = np.zeros((64, 8), dtype=np.int8)
        queries[::4] = 1
        family.query_rows = 0
        results = index.batch_query(queries, max_retrieved=30)
        assert [r.stats.truncated for r in results] == [False, True, True, True] * 16
        assert [r.stats.tables_probed for r in results] == [8, 2, 2, 2] * 16
        reached = min(8, WAVE) if backend == "packed" else 2
        assert family.query_rows == 48 * reached + 16 * 8

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cap", [25, 40], ids=["mid-table", "at-boundary"])
    def test_capped_block_hashes_no_wave_past_the_cut(self, backend, cap):
        """20 hits per table and a cap of 25 (or exactly 40): every row's
        cut falls in table 1, so no table past the wave holding it is
        hashed (the dict reference walk hashes exactly the tables it
        reaches)."""
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=8, rng=0, backend=backend).build(points)
        family.query_rows = 0
        block = index.batch_query_hits(points[:3], max_hits=cap)
        kept = cap - 20
        assert block.table_counts.tolist() == [[20, kept, 0, 0, 0, 0, 0, 0]] * 3
        assert block.full_table_counts.tolist() == [[20, 20, 0, 0, 0, 0, 0, 0]] * 3
        wave_end = min(8, WAVE * -(-2 // WAVE))
        reached = wave_end if backend == "packed" else 2
        assert family.query_rows == 3 * reached

    def test_capped_block_retires_rows_separately(self):
        """A row whose cut falls in the first wave stops being hashed; a
        row that never fills its cap (all-ones queries collide with no
        all-zeros point) is hashed through every table."""
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=8, rng=0, backend="packed").build(points)
        queries = np.array([[0] * 8, [1] * 8, [0] * 8], dtype=np.int8)
        family.query_rows = 0
        block = index.batch_query_hits(queries, max_hits=25)
        assert block.truncated.tolist() == [True, False, True]
        assert block.table_counts.sum(axis=1).tolist() == [25, 0, 25]
        wave_end = min(8, WAVE * -(-2 // WAVE))
        assert family.query_rows == 2 * wave_end + 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_uncapped_block_hashes_every_table(self, backend):
        family = CountingFamily(BitSampling(8))
        points = np.zeros((20, 8), dtype=np.int8)
        index = DSHIndex(family, n_tables=8, rng=0, backend=backend).build(points)
        family.query_rows = 0
        index.batch_query_hits(points[:3])
        assert family.query_rows == 3 * 8

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


def _same_block(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("hits", "offsets", "table_counts", "truncated",
                  "full_table_counts")
    )


class TestMaxHitsValidation:
    """``DSHIndex.batch_query_hits`` rejects a ``max_hits`` that is not
    ``None`` or a non-negative integer, on both backends, before probing:
    a negative cap is not answered as a negative slice (dict) or an empty
    stream (packed), and a float is not used as a fractional cap."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "cap, error",
        [(2.5, TypeError), (np.float64(3.0), TypeError), ("8", TypeError),
         (-1, ValueError), (np.int64(-3), ValueError)],
        ids=["float", "np-float", "str", "negative", "np-negative"],
    )
    def test_rejects_bad_max_hits(self, budget_surfaces, backend, cap, error):
        surfaces, _, points = budget_surfaces
        with pytest.raises(error, match="max_hits"):
            surfaces[backend].batch_query_hits(points[:3], max_hits=cap)

    def test_integer_like_max_hits_answer_as_ints(self, budget_surfaces):
        surfaces, _, points = budget_surfaces
        for cap in (0, 7, np.int64(7), np.int32(40)):
            expected = surfaces["dict"].batch_query_hits(
                points[:5], max_hits=int(cap)
            )
            for backend in BACKENDS:
                assert _same_block(
                    surfaces[backend].batch_query_hits(points[:5], max_hits=cap),
                    expected,
                )
