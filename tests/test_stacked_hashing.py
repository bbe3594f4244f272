"""Exactness of the two query-path fusions.

* A concatenation whose sub-pairs are all symmetric coordinate
  projections (bit sampling) hashes with one fused column gather; its
  output must equal the per-sub-pair ``hstack`` it replaces, and any
  other sub-pair (anti bit-sampling) must keep the ``hstack`` path.
* The packed backend fingerprints all ``L`` tables with one mixing pass
  per component width; the result must equal the per-table reference,
  also when a mixture gives the tables different widths.
"""

import pickle

import numpy as np
import pytest

from repro.core.combinators import ConcatenatedFamily, MixtureFamily, PoweredFamily
from repro.core.family import CoordinateProjection, rows_to_fingerprints
from repro.families.bit_sampling import AntiBitSampling, BitSampling
from repro.index import DSHIndex
from repro.index.backends import _query_fingerprints
from repro.spaces import hamming
from repro.utils.rng import ensure_rng, spawn_rngs

D = 20


def _sub_pairs(family, seed):
    """The sub-pairs a concatenation draws, sampled one by one from the
    same spawned generators."""
    rng = ensure_rng(seed)
    return [
        fam.sample(r)
        for fam, r in zip(family.families, spawn_rngs(rng, len(family.families)))
    ]


def _coordinates(meta):
    """The sampled coordinates of a (possibly nested) concatenation, in
    column order."""
    if "parts" in meta:
        return [c for part in meta["parts"] for c in _coordinates(part)]
    return [meta["coordinate"]]


def _points(n, dtype, seed=0):
    return hamming.random_points(n, D, rng=seed).astype(dtype)


FUSED = [
    lambda: PoweredFamily(BitSampling(D), 7),
    lambda: ConcatenatedFamily([BitSampling(D), PoweredFamily(BitSampling(D), 3)]),
    lambda: PoweredFamily(PoweredFamily(BitSampling(D), 2), 3),
]
UNFUSED = [
    lambda: ConcatenatedFamily([BitSampling(D), AntiBitSampling(D), BitSampling(D)]),
    lambda: PoweredFamily(AntiBitSampling(D), 4),
]


class TestFusedConcatenation:
    @pytest.mark.parametrize("factory", FUSED)
    @pytest.mark.parametrize("dtype", [np.int8, bool, np.int64])
    @pytest.mark.parametrize("n", [0, 1, 64])
    def test_fused_equals_hstack(self, factory, dtype, n):
        family = factory()
        pair = family.sample(5)
        assert isinstance(pair.h, CoordinateProjection)
        assert pair.h is pair.g
        points = _points(n, dtype)
        reference = np.hstack(
            [p.hash_query(points) for p in _sub_pairs(family, 5)]
        )
        for side in (pair.hash_data(points), pair.hash_query(points)):
            assert side.dtype == np.int64
            assert side.shape == reference.shape
            # Row-major like the hstack, so fingerprinting needs no copy.
            assert side.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(side, reference)

    def test_fused_columns_are_the_sampled_coordinates(self):
        family = PoweredFamily(BitSampling(D), 6)
        pair = family.sample(2)
        coordinates = _coordinates(pair.meta)
        assert pair.h.columns.tolist() == coordinates
        points = _points(9, np.int8)
        np.testing.assert_array_equal(
            pair.hash_query(points), points[:, coordinates].astype(np.int64)
        )

    @pytest.mark.parametrize("factory", UNFUSED)
    @pytest.mark.parametrize("dtype", [np.int8, bool, np.int64])
    @pytest.mark.parametrize("n", [0, 1, 64])
    def test_asymmetric_part_keeps_hstack(self, factory, dtype, n):
        family = factory()
        pair = family.sample(7)
        assert pair.h is not pair.g
        points = _points(n, dtype)
        parts = _sub_pairs(family, 7)
        np.testing.assert_array_equal(
            pair.hash_data(points), np.hstack([p.hash_data(points) for p in parts])
        )
        np.testing.assert_array_equal(
            pair.hash_query(points), np.hstack([p.hash_query(points) for p in parts])
        )
        # Anti bit-sampling collides exactly when the sampled bits differ.
        if n:
            assert not np.any(pair.collides(points, points))

    @pytest.mark.parametrize("factory", FUSED + UNFUSED)
    def test_too_narrow_point_raises(self, factory):
        pair = factory().sample(3)
        coordinates = _coordinates(pair.meta)
        width = max(coordinates)
        first = next(c for c in coordinates if c >= width)
        for rows in (0, 2):
            narrow = np.zeros((rows, width), dtype=np.int8)
            for hash_side in (pair.hash_data, pair.hash_query):
                with pytest.raises(ValueError, match=f"coordinate {first}\\)"):
                    hash_side(narrow)

    def test_projection_pickles(self):
        pair = PoweredFamily(BitSampling(D), 5).sample(4)
        clone = pickle.loads(pickle.dumps(pair.h))
        points = _points(8, np.int8)
        np.testing.assert_array_equal(clone.columns, pair.h.columns)
        np.testing.assert_array_equal(clone(points), pair.h(points))

    def test_single_point_is_one_row(self):
        pair = BitSampling(D).sample(1)
        point = _points(1, np.int8)[0]
        assert pair.hash_query(point).shape == (1, 1)


def _mixed_width_family():
    # Tables tagged 0 have 1 + 2 components, tables tagged 1 have 1 + 1.
    return MixtureFamily(
        [PoweredFamily(BitSampling(D), 2), BitSampling(D)], [0.5, 0.5]
    )


class TestStackedFingerprints:
    @pytest.mark.parametrize("n", [0, 1, 5, 64])
    def test_equals_per_table_reference(self, n):
        pairs = _mixed_width_family().sample_pairs(12, rng=3)
        points = _points(n, np.int8, seed=4)
        comps = [p.hash_query(points) for p in pairs]
        assert {c.shape[1] for c in comps} == {2, 3}
        reference = np.stack([rows_to_fingerprints(c) for c in comps])
        stacked = _query_fingerprints(comps)
        assert stacked.dtype == np.uint64
        assert stacked.shape == (12, n)
        np.testing.assert_array_equal(stacked, reference)

    def test_one_width(self):
        pairs = PoweredFamily(BitSampling(D), 4).sample_pairs(6, rng=1)
        points = _points(9, np.int8, seed=2)
        comps = [p.hash_query(points) for p in pairs]
        np.testing.assert_array_equal(
            _query_fingerprints(comps),
            np.stack([rows_to_fingerprints(c) for c in comps]),
        )

    @pytest.mark.parametrize("budget", [None, 0, 7, 60])
    def test_packed_equals_dict_on_mixed_widths(self, budget):
        points = _points(300, np.int8, seed=5)
        queries = np.concatenate([points[:10], _points(20, np.int8, seed=6)])
        built = {
            name: DSHIndex(
                _mixed_width_family(), n_tables=12, rng=8, backend=name
            ).build(points)
            for name in ("dict", "packed")
        }
        dict_results = built["dict"].batch_query(queries, max_retrieved=budget)
        packed_results = built["packed"].batch_query(queries, max_retrieved=budget)
        assert [r.indices for r in packed_results] == [
            r.indices for r in dict_results
        ]
        assert [r.stats for r in packed_results] == [r.stats for r in dict_results]
        dict_hits = built["dict"].batch_query_hits(queries, max_hits=budget)
        packed_hits = built["packed"].batch_query_hits(queries, max_hits=budget)
        np.testing.assert_array_equal(packed_hits.hits, dict_hits.hits)
        np.testing.assert_array_equal(packed_hits.offsets, dict_hits.offsets)
        np.testing.assert_array_equal(
            packed_hits.table_counts, dict_hits.table_counts
        )
