"""Tests for the generic asymmetric hashing index."""

import numpy as np
import pytest

from repro.core.combinators import PoweredFamily
from repro.families.bit_sampling import BitSampling
from repro.families.simhash import SimHash
from repro.index.lsh_index import DSHIndex
from repro.spaces import hamming, sphere


class TestBuildAndQuery:
    def test_exact_duplicate_always_retrieved_by_symmetric_family(self):
        pts = hamming.random_points(200, 16, rng=0)
        index = DSHIndex(BitSampling(16), n_tables=5, rng=1).build(pts)
        for i in [0, 57, 199]:
            candidates, stats = index.query(pts[i])
            assert i in candidates
            assert stats.tables_probed == 5

    def test_unbuilt_index_raises(self):
        index = DSHIndex(BitSampling(8), n_tables=2, rng=0)
        with pytest.raises(RuntimeError, match="build"):
            index.query(np.zeros(8, dtype=np.int8))

    def test_retrieval_rate_matches_cpf(self):
        """Per-table retrieval probability of a point at distance r is f(r)."""
        d, r, L = 32, 8, 400
        fam = BitSampling(d)
        x, y = hamming.pairs_at_distance(1, d, r, rng=2)
        index = DSHIndex(fam, n_tables=L, rng=3).build(x)
        _, stats = index.query(y[0])
        rate = stats.retrieved / L
        assert rate == pytest.approx(1 - r / d, abs=0.09)

    def test_powered_family_reduces_collisions(self):
        d, r, L = 32, 8, 300
        x, y = hamming.pairs_at_distance(1, d, r, rng=4)
        base_rate_index = DSHIndex(BitSampling(d), n_tables=L, rng=5).build(x)
        powered_index = DSHIndex(
            PoweredFamily(BitSampling(d), 4), n_tables=L, rng=6
        ).build(x)
        _, base_stats = base_rate_index.query(y[0])
        _, pow_stats = powered_index.query(y[0])
        assert pow_stats.retrieved < base_stats.retrieved

    def test_stats_duplicates(self):
        pts = np.zeros((3, 8), dtype=np.int8)  # identical points
        index = DSHIndex(BitSampling(8), n_tables=4, rng=7).build(pts)
        candidates, stats = index.query(pts[0])
        assert stats.retrieved == 12  # 3 points x 4 tables
        assert stats.unique_candidates == 3
        assert stats.duplicates == 9

    def test_max_retrieved_truncates(self):
        pts = np.zeros((50, 8), dtype=np.int8)
        index = DSHIndex(BitSampling(8), n_tables=10, rng=8).build(pts)
        _, stats = index.query(pts[0], max_retrieved=60)
        assert stats.truncated
        assert stats.tables_probed < 10

    def test_one_row_hits_stream_with_duplicates(self):
        pts = np.zeros((2, 8), dtype=np.int8)
        index = DSHIndex(BitSampling(8), n_tables=3, rng=9).build(pts)
        block = index.batch_query_hits(pts[0][None])
        hits = block.segment(0)
        assert len(hits) == 6  # 2 points x 3 tables, duplicates preserved
        tables = {block.table_of(0, position) for position in range(len(hits))}
        assert tables == {0, 1, 2}

    def test_single_query_point_enforced(self):
        pts = sphere.random_points(10, 6, rng=10)
        index = DSHIndex(SimHash(6), n_tables=2, rng=11).build(pts)
        with pytest.raises(ValueError, match="single point"):
            index.query(pts[:2])

    def test_invalid_table_count(self):
        with pytest.raises(ValueError):
            DSHIndex(BitSampling(8), n_tables=0)

    def test_bucket_sizes_cover_all_points(self):
        pts = sphere.random_points(64, 6, rng=12)
        index = DSHIndex(SimHash(6), n_tables=3, rng=13).build(pts)
        assert sum(index.bucket_sizes()) == 64 * 3
        assert index.n_points == 64
