"""Tests for annulus search (Theorem 6.1 / 6.4) and hyperplane queries."""

import numpy as np
import pytest

from repro.core.combinators import PoweredFamily
from repro.data.synthetic import planted_sphere_annulus
from repro.index.annulus import AnnulusIndex, sphere_annulus_index
from repro.index.hyperplane import HyperplaneIndex, hyperplane_rho
from repro.families.euclidean_lsh import ShiftedGaussianProjection
from repro.families.simhash import SimHash
from repro.spaces import euclidean, sphere

D = 24


class TestSphereAnnulusIndex:
    def test_planted_point_found_with_good_probability(self):
        """Theorem 6.1: success probability >= 1/2 per query."""
        hits = 0
        trials = 12
        for seed in range(trials):
            inst = planted_sphere_annulus(400, D, (0.35, 0.55), rng=seed)
            index = sphere_annulus_index(
                inst.points,
                alpha_interval=(0.25, 0.65),
                t=1.6,
                n_tables=120,
                rng=seed + 100,
            )
            result = index.query(inst.query)
            if result.found:
                assert 0.25 <= result.proximity <= 0.65
                hits += 1
        assert hits / trials >= 0.5

    def test_reported_point_is_inside_interval(self):
        inst = planted_sphere_annulus(300, D, (0.4, 0.5), rng=3)
        index = sphere_annulus_index(
            inst.points, (0.3, 0.6), t=1.6, n_tables=150, rng=4
        )
        result = index.query(inst.query)
        if result.found:
            alpha = float(inst.points[result.index] @ inst.query)
            assert 0.3 <= alpha <= 0.6

    def test_budget_bounds_examined_candidates(self):
        inst = planted_sphere_annulus(500, D, (0.4, 0.5), rng=5)
        index = sphere_annulus_index(
            inst.points, (0.3, 0.6), t=1.4, n_tables=50, rng=6, budget_factor=2.0
        )
        result = index.query(inst.query)
        assert result.candidates_examined <= max(1, 2 * 50) + 1

    def test_sublinear_candidate_work(self):
        """The index examines far fewer candidates than a linear scan."""
        n = 2000
        inst = planted_sphere_annulus(n, D, (0.4, 0.5), rng=7)
        index = sphere_annulus_index(
            inst.points, (0.3, 0.6), t=1.8, n_tables=200, rng=8
        )
        result = index.query(inst.query)
        assert result.candidates_examined < n / 2

    def test_interval_validation(self):
        pts = sphere.random_points(10, D, rng=9)
        with pytest.raises(ValueError):
            sphere_annulus_index(pts, (0.6, 0.3), t=1.5, n_tables=5)


class TestEuclideanAnnulus:
    def test_shifted_family_solves_euclidean_annulus(self):
        """A unimodal equation-(2) family peaking near r answers Euclidean
        annulus queries (the Figure 1 family used as Theorem 6.1 input)."""
        n, d = 400, 12
        r = 3.0
        rng = np.random.default_rng(10)
        query = euclidean.random_points(1, d, rng)[0]
        points = euclidean.translate_at_distance(
            np.repeat(query[None, :], n, axis=0), 12.0, rng
        )
        target_idx = 7
        points[target_idx] = euclidean.translate_at_distance(
            query[None, :], r, rng
        )[0]
        family = ShiftedGaussianProjection(d, w=1.0, k=3)  # peaks near 3
        index = AnnulusIndex(
            points,
            family,
            interval=(2.0, 4.5),
            proximity=lambda q, pts: np.linalg.norm(pts - q, axis=1),
            n_tables=120,
            rng=11,
        )
        found = sum(index.query(query).found for _ in range(3))
        assert found >= 1

    def test_no_valid_point_returns_none(self):
        d = 8
        rng = np.random.default_rng(12)
        query = euclidean.random_points(1, d, rng)[0]
        points = euclidean.translate_at_distance(
            np.repeat(query[None, :], 100, axis=0), 20.0, rng
        )
        index = AnnulusIndex(
            points,
            ShiftedGaussianProjection(d, w=1.0, k=3),
            interval=(2.0, 4.0),
            proximity=lambda q, pts: np.linalg.norm(pts - q, axis=1),
            n_tables=40,
            rng=13,
        )
        result = index.query(query)
        assert not result.found
        assert np.isnan(result.proximity)


class TestHyperplane:
    def test_rho_formula(self):
        assert hyperplane_rho(0.5) == pytest.approx((1 - 0.25) / (1 + 0.25))
        with pytest.raises(ValueError):
            hyperplane_rho(0.0)

    def test_finds_orthogonal_vector(self):
        rng = np.random.default_rng(14)
        n = 300
        points = sphere.random_points(n, D, rng)
        query = sphere.random_points(1, D, rng)[0]
        # Plant an exactly orthogonal vector.
        u = sphere.orthogonal_to(query[None, :], rng)[0]
        points[0] = u
        index = HyperplaneIndex(points, alpha=0.3, t=1.5, n_tables=100, rng=15)
        found = sum(index.query(query).found for _ in range(3))
        assert found >= 1
        result = index.query(query)
        if result.found:
            assert abs(points[result.index] @ query) <= 0.3

    def test_alpha_validation(self):
        pts = sphere.random_points(10, D, rng=16)
        with pytest.raises(ValueError):
            HyperplaneIndex(pts, alpha=1.5, t=1.5, n_tables=5)


class TestProximityContract:
    """``proximity`` maps ``(query (d,), points (m, d))`` to shape ``(m,)``.
    An output of any other shape raises ``ValueError`` on every query path
    instead of being broadcast over the hits or indexed past its end."""

    @staticmethod
    def _index(proximity):
        # Symmetric family, so a data point collides with itself in every
        # table and each query path reaches the proximity check.
        pts = sphere.random_points(30, 10, rng=0)
        index = AnnulusIndex(
            pts, PoweredFamily(SimHash(10), 2), interval=(0.1, 0.2),
            proximity=proximity, n_tables=4, rng=1,
        )
        return index, pts[:3]

    PATHS = {
        "query": lambda index, qs: index.query(qs[0]),
        "query_many": lambda index, qs: index.query_many(qs[0], 2),
        "batch_query": lambda index, qs: index.batch_query(qs),
    }

    @pytest.mark.parametrize("path", list(PATHS))
    def test_scalar_output_rejected(self, path):
        index, queries = self._index(lambda q, pts: float(pts[0] @ q))
        with pytest.raises(ValueError, match="proximity must map"):
            self.PATHS[path](index, queries)

    @pytest.mark.parametrize("path", list(PATHS))
    def test_extra_rows_rejected(self, path):
        index, queries = self._index(
            lambda q, pts: np.append(pts @ q, 0.0)
        )
        with pytest.raises(ValueError, match="proximity must map"):
            self.PATHS[path](index, queries)

    def test_length_one_output_rejected_by_batch(self):
        # On the one-row calls of query / query_many a length-1 output is
        # the correct shape; only the batched call exposes it.
        index, queries = self._index(lambda q, pts: (pts @ q)[:1])
        with pytest.raises(ValueError, match="proximity must map"):
            index.batch_query(queries)
