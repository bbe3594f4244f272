"""Tests for index extensions: batch queries and multi-result annulus."""

import numpy as np
import pytest

from repro.data.synthetic import clustered_unit_vectors, planted_sphere_annulus
from repro.families.bit_sampling import BitSampling
from repro.index.annulus import sphere_annulus_index
from repro.index.lsh_index import DSHIndex
from repro.spaces import hamming


class TestBatchQuery:
    def test_matches_single_queries(self):
        d = 16
        pts = hamming.random_points(300, d, rng=0)
        index = DSHIndex(BitSampling(d), n_tables=6, rng=1).build(pts)
        queries = hamming.random_points(10, d, rng=2)
        batched = index.batch_query(queries)
        for i in range(10):
            single, single_stats = index.query(queries[i])
            b_cands, b_stats = batched[i]
            assert single == b_cands
            assert single_stats.retrieved == b_stats.retrieved
            assert single_stats.unique_candidates == b_stats.unique_candidates

    def test_truncation_matches(self):
        d = 8
        pts = np.zeros((40, d), dtype=np.int8)
        index = DSHIndex(BitSampling(d), n_tables=8, rng=3).build(pts)
        queries = np.zeros((3, d), dtype=np.int8)
        for cands, stats in index.batch_query(queries, max_retrieved=50):
            assert stats.truncated
            assert stats.retrieved >= 50

    def test_unbuilt_raises(self):
        index = DSHIndex(BitSampling(8), n_tables=2, rng=4)
        with pytest.raises(RuntimeError):
            index.batch_query(np.zeros((1, 8), dtype=np.int8))


class TestQueryMany:
    def test_returns_distinct_in_interval_points(self):
        pts, labels, centers = clustered_unit_vectors(6, 150, 32, rng=5)
        query = pts[0]
        index = sphere_annulus_index(
            pts, alpha_interval=(0.3, 0.8), t=1.6, n_tables=120, rng=6
        )
        hits = index.query_many(query, k=5)
        assert 1 <= len(hits) <= 5
        indices = [h.index for h in hits]
        assert len(set(indices)) == len(indices)
        for h in hits:
            assert 0.3 <= h.proximity <= 0.8

    def test_k_one_matches_query_semantics(self):
        inst = planted_sphere_annulus(300, 24, (0.4, 0.5), rng=7)
        index = sphere_annulus_index(
            inst.points, (0.3, 0.6), t=1.6, n_tables=100, rng=8
        )
        hits = index.query_many(inst.query, k=1)
        single = index.query(inst.query)
        if single.found:
            assert len(hits) == 1
            assert hits[0].index == single.index

    def test_invalid_k(self):
        inst = planted_sphere_annulus(50, 24, (0.4, 0.5), rng=9)
        index = sphere_annulus_index(
            inst.points, (0.3, 0.6), t=1.5, n_tables=10, rng=10
        )
        with pytest.raises(ValueError):
            index.query_many(inst.query, k=0)
        # k is an integer count, not a float cap or a string.
        for bad in (2.5, np.float64(2.0), "3"):
            with pytest.raises(TypeError, match="k must be an integer"):
                index.query_many(inst.query, k=bad)
        assert index.query_many(inst.query, k=np.int64(2)) == (
            index.query_many(inst.query, k=2)
        )

    def test_budget_respected(self):
        inst = planted_sphere_annulus(500, 24, (0.4, 0.5), rng=11)
        index = sphere_annulus_index(
            inst.points, (0.3, 0.6), t=1.5, n_tables=20, rng=12, budget_factor=1.0
        )
        hits = index.query_many(inst.query, k=50)
        # With a tight budget, the number of candidates any hit saw is
        # bounded by the budget.
        for h in hits:
            assert h.candidates_examined <= 20 + 1
