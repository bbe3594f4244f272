"""API-surface tests: reprs, query dimensionality validation, the
tuple-compatible ``CandidateResult``, deprecation shims, and the
``Queryable`` protocol."""

import numpy as np
import pytest

from repro.api import IndexSpec, build_index
from repro.data.synthetic import planted_euclidean_range
from repro.families.bit_sampling import BitSampling
from repro.families.simhash import SimHash
from repro.families.step import design_step_family
from repro.index import (
    CandidateResult,
    DSHIndex,
    HyperplaneIndex,
    Queryable,
    QueryStats,
    RangeReportingIndex,
    sphere_annulus_index,
)
from repro.serving import ShardedIndex
from repro.spaces import hamming, sphere


def _euclid(q, pts):
    return np.linalg.norm(pts - q, axis=1)


class TestRepr:
    def test_dsh_index(self):
        index = DSHIndex(SimHash(6), n_tables=4, rng=0, backend="packed")
        assert "unbuilt" in repr(index)
        index.build(sphere.random_points(25, 6, rng=1))
        text = repr(index)
        assert "SimHash" in text
        assert "L=4" in text
        assert "backend='packed'" in text
        assert "n_points=25" in text

    def test_annulus_index(self):
        pts = sphere.random_points(30, 8, rng=2)
        index = sphere_annulus_index(
            pts, (0.3, 0.6), t=1.5, n_tables=5, rng=3, backend="dict"
        )
        text = repr(index)
        assert "AnnulusIndex" in text and "AnnulusFamily" in text
        assert "L=5" in text and "backend='dict'" in text
        assert "n_points=30" in text and "interval=(0.3, 0.6)" in text

    def test_hyperplane_index(self):
        pts = sphere.random_points(30, 8, rng=4)
        index = HyperplaneIndex(pts, alpha=0.3, t=1.5, n_tables=5, rng=5)
        text = repr(index)
        assert "HyperplaneIndex" in text and "alpha=0.3" in text
        assert "L=5" in text and "n_points=30" in text

    def test_range_reporting_index(self):
        inst = planted_euclidean_range(40, 8, 4.0, n_near=3, rng=6)
        design = design_step_family(8, r_flat=4.0, level=0.12, n_components=3)
        index = RangeReportingIndex(
            inst.points, design.family, 4.0, _euclid, 5, rng=7
        )
        text = repr(index)
        assert "RangeReportingIndex" in text
        assert "r_report=4.0" in text and "n_points=40" in text


class TestDimensionValidation:
    @pytest.fixture(scope="class")
    def index(self):
        return DSHIndex(BitSampling(16), n_tables=3, rng=0).build(
            hamming.random_points(50, 16, rng=1)
        )

    def test_dim_property(self, index):
        assert index.dim == 16
        assert DSHIndex(BitSampling(4), n_tables=1).dim is None

    @pytest.mark.parametrize("bad_d", [8, 17])
    def test_single_query_rejected(self, index, bad_d):
        with pytest.raises(ValueError, match="dimensionality"):
            index.query(np.zeros(bad_d, dtype=np.int8))

    def test_batch_query_rejected(self, index):
        with pytest.raises(ValueError, match="dimensionality"):
            index.batch_query(np.zeros((4, 8), dtype=np.int8))

    def test_iter_and_hits_rejected(self, index):
        with pytest.raises(ValueError, match="dimensionality"):
            index.batch_query_hits(np.zeros((2, 8), dtype=np.int8))

    def test_3d_queries_rejected(self, index):
        with pytest.raises(ValueError, match="one point"):
            index.batch_query(np.zeros((2, 3, 16), dtype=np.int8))

    def test_application_layers_validate(self):
        pts = sphere.random_points(40, 12, rng=2)
        annulus = sphere_annulus_index(
            pts, (0.3, 0.6), t=1.5, n_tables=4, rng=3
        )
        with pytest.raises(ValueError, match="dimensionality"):
            annulus.query(np.zeros(7))
        with pytest.raises(ValueError, match="dimensionality"):
            annulus.batch_query(np.zeros((2, 7)))
        inst = planted_euclidean_range(30, 8, 4.0, n_near=2, rng=4)
        design = design_step_family(8, r_flat=4.0, level=0.12, n_components=3)
        reporting = RangeReportingIndex(
            inst.points, design.family, 4.0, _euclid, 4, rng=5
        )
        with pytest.raises(ValueError, match="dimensionality"):
            reporting.query(np.zeros(5))
        with pytest.raises(ValueError, match="dimensionality"):
            reporting.batch_query(np.zeros((2, 5)))

    @pytest.mark.parametrize(
        "method", ["annulus.query", "annulus.query_many", "range.query",
                   "hyperplane.query"],
    )
    @pytest.mark.parametrize("shape", [(2, 4), (2, 8)])
    def test_single_point_methods_reject_blocks(self, method, shape):
        """A ``(2, 4)`` block on a ``d = 8`` index holds 8 numbers, but it
        is two points: like ``DSHIndex.query``, every single-point method
        must raise instead of flattening a block into one query."""
        pts = sphere.random_points(40, 8, rng=2)
        inst = planted_euclidean_range(40, 8, 4.0, n_near=2, rng=4)
        design = design_step_family(8, r_flat=4.0, level=0.12, n_components=3)
        calls = {
            "annulus.query": lambda q: sphere_annulus_index(
                pts, (0.3, 0.6), t=1.5, n_tables=4, rng=3
            ).query(q),
            "annulus.query_many": lambda q: sphere_annulus_index(
                pts, (0.3, 0.6), t=1.5, n_tables=4, rng=3
            ).query_many(q, 2),
            "range.query": lambda q: RangeReportingIndex(
                inst.points, design.family, 4.0, _euclid, 4, rng=5
            ).query(q),
            "hyperplane.query": lambda q: HyperplaneIndex(
                pts, alpha=0.3, t=1.5, n_tables=4, rng=5
            ).query(q),
        }
        block = np.full(shape, 0.25)
        with pytest.raises(ValueError, match="dimensionality|single point"):
            calls[method](block)
        # One point in a (1, d) row is still a single query.
        calls[method](pts[:1])

    def test_matching_dim_accepted(self, index):
        candidates, stats = index.query(np.zeros(16, dtype=np.int8))
        assert stats.tables_probed == 3


class TestRejectedRebuild:
    def test_rejected_rebuild_keeps_the_built_index(self):
        """A rebuild rejected before it hashes (``workers=0``) leaves the
        index's shape and answers as they were."""
        points = hamming.random_points(50, 16, rng=1)
        index = DSHIndex(BitSampling(16), n_tables=3, rng=0).build(points)
        before = index.batch_query(points[:4])
        with pytest.raises(ValueError, match="workers"):
            index.build(points[:10, :8], workers=0)
        assert (index.n_points, index.dim) == (50, 16)
        assert index.batch_query(points[:4]) == before


class TestNonFiniteQueries:
    """A NaN/inf row hashes to a family's "not captured" sentinel, so it
    must be rejected at the boundary instead of answered as "not found"."""

    BAD = [np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_dsh_index_rejects(self, bad):
        index = DSHIndex(SimHash(6), n_tables=3, rng=0).build(
            sphere.random_points(20, 6, rng=1)
        )
        block = sphere.random_points(3, 6, rng=2)
        block[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            index.query(block[1])
        with pytest.raises(ValueError, match="finite"):
            index.batch_query(block)
        with pytest.raises(ValueError, match="finite"):
            index.batch_query_hits(block.astype(np.float32))

    @pytest.mark.parametrize("bad", BAD)
    def test_annulus_index_rejects(self, bad):
        pts = sphere.random_points(40, 12, rng=2)
        annulus = sphere_annulus_index(pts, (0.3, 0.6), t=1.5, n_tables=4, rng=3)
        block = sphere.random_points(4, 12, rng=4)
        block[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            annulus.query(block[2])
        with pytest.raises(ValueError, match="finite"):
            annulus.batch_query(block)

    @pytest.mark.parametrize("bad", BAD)
    def test_sharded_index_rejects(self, bad):
        pts = sphere.random_points(30, 6, rng=5)
        spec = IndexSpec(kind="raw", family="simhash", family_params={"d": 6},
                         n_tables=3, seed=1, shards=2)
        sharded = ShardedIndex(pts, spec)
        block = sphere.random_points(3, 6, rng=6)
        block[0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            sharded.query(block[0])
        with pytest.raises(ValueError, match="finite"):
            sharded.batch_query(block)

    def test_finite_and_integer_blocks_accepted(self):
        pts = sphere.random_points(30, 6, rng=5)
        index = DSHIndex(SimHash(6), n_tables=3, rng=0).build(pts)
        assert len(index.batch_query(pts[:3])) == 3
        points = hamming.random_points(10, 8, rng=1)
        for dtype in (np.int8, np.uint8, bool):
            bits = DSHIndex(BitSampling(8), n_tables=2, rng=0).build(
                points.astype(dtype)
            )
            assert len(bits.batch_query(np.zeros((2, 8), dtype=dtype))) == 2


class TestNonFiniteDataPoints:
    """A NaN/inf data point is rejected at build, on every kind: built, it
    would hash to a "not captured" sentinel and come back as a candidate
    for unrelated queries."""

    BUILDS = {
        "raw": dict(kind="raw", family="simhash"),
        "annulus": dict(kind="annulus", family="annulus_sphere", t=1.5,
                        interval=(0.3, 0.6)),
        "hyperplane": dict(kind="hyperplane", alpha=0.3, t=1.5),
        "range_reporting": dict(kind="range_reporting", family="simhash",
                                r_report=0.5, distance="euclidean_distance"),
        "sharded": dict(kind="raw", family="simhash", shards=2),
    }

    @pytest.mark.parametrize("bad", TestNonFiniteQueries.BAD)
    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_build_rejects(self, name, bad):
        points = sphere.random_points(20, 8, rng=1)
        points[7, 2] = bad
        with pytest.raises(ValueError, match="points .* finite"):
            build_index(points, n_tables=3, rng=0, **self.BUILDS[name])

    @pytest.mark.parametrize("kind", ["object", "str", "complex"])
    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_build_rejects_non_real_points(self, name, kind):
        points = _non_numeric(sphere.random_points(20, 8, rng=1), kind)
        with pytest.raises(TypeError, match="points must have"):
            build_index(points, n_tables=3, rng=0, **self.BUILDS[name])


def _non_numeric(row, kind):
    """``row`` recast to an object, string or complex dtype."""
    if kind == "object":
        return np.asarray(row).astype(object)
    if kind == "str":
        return np.asarray(row).astype(str)
    return np.asarray(row).astype(np.complex128)


class TestNonNumericQueries:
    """Object, string and complex rows are rejected with ``TypeError``
    instead of being parsed or silently losing their imaginary part."""

    KINDS = ["object", "str", "complex"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_dsh_index_rejects(self, kind):
        points = hamming.random_points(20, 8, rng=1)
        index = DSHIndex(BitSampling(8), n_tables=3, rng=0).build(points)
        bad = _non_numeric(points[:3], kind)
        with pytest.raises(TypeError, match="dtype"):
            index.query(bad[1])
        with pytest.raises(TypeError, match="dtype"):
            index.batch_query(bad)
        with pytest.raises(TypeError, match="dtype"):
            index.batch_query_hits(bad)

    @pytest.mark.parametrize("kind", KINDS)
    def test_annulus_index_rejects(self, kind):
        pts = sphere.random_points(40, 12, rng=2)
        annulus = sphere_annulus_index(pts, (0.3, 0.6), t=1.5, n_tables=4, rng=3)
        bad = _non_numeric(sphere.random_points(4, 12, rng=4), kind)
        with pytest.raises(TypeError, match="dtype"):
            annulus.query(bad[2])
        with pytest.raises(TypeError, match="dtype"):
            annulus.batch_query(bad)
        with pytest.raises(TypeError, match="dtype"):
            annulus.query_many(bad[0], 2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sharded_index_rejects(self, kind):
        pts = sphere.random_points(30, 6, rng=5)
        spec = IndexSpec(kind="raw", family="simhash", family_params={"d": 6},
                         n_tables=3, seed=1, shards=2)
        sharded = ShardedIndex(pts, spec)
        bad = _non_numeric(sphere.random_points(3, 6, rng=6), kind)
        with pytest.raises(TypeError, match="dtype"):
            sharded.query(bad[0])
        with pytest.raises(TypeError, match="dtype"):
            sharded.batch_query(bad)

    @pytest.mark.parametrize("kind", KINDS)
    def test_other_application_layers_reject(self, kind):
        pts = sphere.random_points(30, 8, rng=4)
        hyper = HyperplaneIndex(pts, alpha=0.3, t=1.5, n_tables=3, rng=5)
        inst = planted_euclidean_range(30, 8, 4.0, n_near=2, rng=4)
        design = design_step_family(8, r_flat=4.0, level=0.12, n_components=3)
        reporting = RangeReportingIndex(
            inst.points, design.family, 4.0, _euclid, 4, rng=5
        )
        bad = _non_numeric(pts[:2], kind)
        for index in (hyper, reporting):
            with pytest.raises(TypeError, match="dtype"):
                index.query(bad[0])
            with pytest.raises(TypeError, match="dtype"):
                index.batch_query(bad)
        # Built directly over non-real points, not through build_index.
        with pytest.raises(TypeError, match="points must have"):
            HyperplaneIndex(bad, alpha=0.3, t=1.5, n_tables=3, rng=5)
        with pytest.raises(TypeError, match="points must have"):
            RangeReportingIndex(bad, design.family, 4.0, _euclid, 4, rng=5)


class TestCandidateResultCompat:
    @pytest.fixture(scope="class")
    def index(self):
        return DSHIndex(BitSampling(8), n_tables=3, rng=0).build(
            np.zeros((5, 8), dtype=np.int8)
        )

    def test_tuple_unpacking_and_equality(self, index):
        result = index.query(np.zeros(8, dtype=np.int8))
        candidates, stats = result          # legacy unpacking
        assert isinstance(result, CandidateResult)
        assert result == (candidates, stats)  # legacy tuple equality
        assert result.indices is candidates
        assert result.stats is stats
        assert isinstance(stats, QueryStats)

    def test_batch_elements_are_candidate_results(self, index):
        for result in index.batch_query(np.zeros((2, 8), dtype=np.int8)):
            assert isinstance(result, CandidateResult)
            assert result.indices == [0, 1, 2, 3, 4]


class TestRemovedShims:
    def test_query_candidates_shim_is_gone(self):
        # Deprecated in PR 2, removed in this release: the README
        # migration table documents `query` as the replacement.
        index = DSHIndex(BitSampling(8), n_tables=3, rng=0).build(
            np.zeros((5, 8), dtype=np.int8)
        )
        assert not hasattr(index, "query_candidates")


class TestQueryableProtocol:
    def test_all_indexes_satisfy_protocol(self):
        pts = sphere.random_points(30, 8, rng=0)
        inst = planted_euclidean_range(30, 8, 4.0, n_near=2, rng=1)
        design = design_step_family(8, r_flat=4.0, level=0.12, n_components=3)
        indexes = [
            DSHIndex(SimHash(8), n_tables=2, rng=0).build(pts),
            sphere_annulus_index(pts, (0.3, 0.6), t=1.5, n_tables=3, rng=1),
            HyperplaneIndex(pts, alpha=0.3, t=1.5, n_tables=3, rng=2),
            RangeReportingIndex(
                inst.points, design.family, 4.0, _euclid, 3, rng=3
            ),
        ]
        for index in indexes:
            assert isinstance(index, Queryable)

    def test_results_carry_stats(self):
        pts = sphere.random_points(30, 8, rng=0)
        annulus = sphere_annulus_index(pts, (0.3, 0.6), t=1.5, n_tables=3, rng=1)
        result = annulus.query(pts[0])
        assert result.stats.tables_probed >= 1
        assert result.retrieved == result.stats.retrieved
        assert result.unique_candidates == result.stats.unique_candidates
