"""Exactness of the three query-path fusions.

* A concatenation whose sub-pairs are all symmetric coordinate
  projections (bit sampling) hashes with one fused column gather; its
  output must equal the per-sub-pair ``hstack`` it replaces, and any
  other sub-pair (anti bit-sampling) must keep the ``hstack`` path.
* The packed backend fingerprints all ``L`` tables with one mixing pass
  per component width; the result must equal the per-table reference,
  also when a mixture gives the tables different widths.
* Tables whose query hashes are one-chunk Gaussian filters (or
  concatenations of them, as the sphere annulus family's D+ (x) D-) are
  hashed a probe wave at a time with one stacked product
  (``FilterStack``); every table's components must equal its per-pair
  ``hash_query``, a filter with more than one chunk must keep per-pair
  calls, a capped block must feed the product only the rows still below
  their cap, and the stacked matrix must be the filters' one resident
  copy of their projections.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combinators import ConcatenatedFamily, MixtureFamily, PoweredFamily
from repro.core.family import CoordinateProjection, rows_to_fingerprints
from repro.families.annulus_sphere import AnnulusFamily
from repro.families.bit_sampling import AntiBitSampling, BitSampling
from repro.families.filters import _CHUNK, FilterStack, GaussianFilterFamily
from repro.index import DSHIndex
from repro.index.annulus import sphere_annulus_index
from repro.index.backends import WAVE, _query_fingerprints
from repro.spaces import hamming, sphere
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


def _filter_families(d, t, m_plus, m_minus):
    """An annulus family (two filters of widths ``m_plus``, ``m_minus``),
    a bare D- filter, and a nested power of filters (four)."""
    return [
        AnnulusFamily(d, alpha_max=0.3, t=t, m_plus=m_plus, m_minus=m_minus),
        GaussianFilterFamily(d, t, m=m_minus, negated=True),
        PoweredFamily(
            ConcatenatedFamily([
                GaussianFilterFamily(d, 0.5 * t, m=m_plus),
                GaussianFilterFamily(d, t, m=m_minus, negated=True),
            ]),
            2,
        ),
    ]


def _filter_tables(kinds, d, t, m_plus, m_minus, seed):
    """One pair per table, table ``k`` drawn from family ``kinds[k]`` of
    :func:`_filter_families`."""
    families = _filter_families(d, t, m_plus, m_minus)
    return [
        families[kind].sample(r)
        for kind, r in zip(kinds, spawn_rngs(ensure_rng(seed), len(kinds)))
    ]


def _per_pair(pairs, points, first, last):
    return [pairs[t].hash_query(points) for t in range(first, last)]


class TestFilterStack:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 40),
        t=st.floats(0.3, 2.5),
        m_plus=st.sampled_from([1, 2, 7, 414, 1000]),
        m_minus=st.sampled_from([1, 3, 64, 414]),
        kind=st.integers(0, 2),
        n_tables=st.integers(1, 9),
        n_rows=st.sampled_from([0, 1, 5, 21, 64]),
        stack_first=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_stacked_equals_per_pair(
        self, d, t, m_plus, m_minus, kind, n_tables, n_rows, stack_first,
        seed, data,
    ):
        """Every wave range and row subset: the stacked components equal
        each table's per-pair ``hash_query`` element for element, whether
        chunk 0 is first drawn into the stacked matrix or first cached by
        a per-pair call and then moved there."""
        kinds = [kind] * n_tables
        pairs = _filter_tables(kinds, d, t, m_plus, m_minus, seed)
        # Independent copies of the same pairs: their chunk 0 is drawn
        # apart from the stack's matrix.
        reference = _filter_tables(kinds, d, t, m_plus, m_minus, seed)
        stack = FilterStack.of([p.g for p in pairs])
        assert stack is not None
        points = sphere.random_points(64, d, rng=seed)
        if not stack_first:
            for pair in pairs:
                pair.hash_query(points[:1])
        for _ in range(3):
            rows = np.sort(data.draw(
                st.lists(st.integers(0, 63), min_size=n_rows,
                         max_size=n_rows, unique=True)
            )).astype(np.intp)
            first = data.draw(st.integers(0, len(kinds) - 1))
            last = data.draw(st.integers(first + 1, len(kinds)))
            got = stack.components(points[rows], first, last)
            expected = _per_pair(reference, points[rows], first, last)
            assert len(got) == last - first
            for block, want in zip(got, expected):
                assert block.dtype == np.int64
                assert block.shape == want.shape == (n_rows, want.shape[1])
                np.testing.assert_array_equal(block, want)
        # The shared caches leave per-pair hashing unchanged too.
        np.testing.assert_array_equal(
            np.hstack(_per_pair(pairs, points, 0, len(kinds))),
            np.hstack(_per_pair(reference, points, 0, len(kinds))),
        )

    @pytest.mark.parametrize("m_plus", [_CHUNK, _CHUNK + 1])
    def test_multi_chunk_filter_keeps_per_pair_calls(self, m_plus):
        """A filter with more than ``_CHUNK`` projections walks its chunks
        per pair: no stack, and the packed probe still agrees with the
        dict walk; exactly ``_CHUNK`` still stacks."""
        family = AnnulusFamily(6, alpha_max=0.2, t=1.0, m_plus=m_plus, m_minus=2)
        points = sphere.random_points(400, 6, rng=1)
        queries = sphere.random_points(9, 6, rng=2)
        built = {
            name: DSHIndex(family, n_tables=5, rng=3, backend=name).build(points)
            for name in ("dict", "packed")
        }
        stacked = m_plus <= _CHUNK
        assert (built["packed"]._stack is not None) == stacked
        comps = built["packed"]._query_components(queries)
        for block, want in zip(
            comps.tables(1, 4, np.array([0, 4, 8])),
            _per_pair(built["packed"]._pairs, queries[[0, 4, 8]], 1, 4),
        ):
            np.testing.assert_array_equal(block, want)
        for cap in (None, 0, 7, 40):
            got = built["packed"].batch_query_hits(queries, max_hits=cap)
            want = built["dict"].batch_query_hits(queries, max_hits=cap)
            np.testing.assert_array_equal(got.hits, want.hits)
            np.testing.assert_array_equal(got.table_counts, want.table_counts)

    def test_other_hashes_do_not_stack(self):
        filters = GaussianFilterFamily(5, 1.0, m=4)
        for family in (
            BitSampling(5),
            ConcatenatedFamily([filters, BitSampling(5)]),
            MixtureFamily([filters, filters], [0.5, 0.5]),
        ):
            pairs = family.sample_pairs(3, rng=0)
            assert FilterStack.of([p.g for p in pairs]) is None
        assert FilterStack.of([]) is None

    def test_tables_of_different_layouts_do_not_stack(self):
        """A stack needs one filter layout across its tables: mixing
        families (or dimensions) keeps per-pair calls."""
        pairs = _filter_tables([0, 1, 2, 0], 6, 1.2, 9, 3, seed=1)
        assert FilterStack.of([p.g for p in pairs]) is None
        wider = AnnulusFamily(7, alpha_max=0.3, t=1.2, m_plus=9, m_minus=3)
        mixed = pairs[:1] + [wider.sample(2)]
        assert FilterStack.of([p.g for p in mixed]) is None

    def test_capped_block_feeds_only_active_rows(self):
        """Count rows at the kernel: in a capped annulus block, wave ``w``'s
        product holds exactly the rows whose pre-cut hits before the wave
        stay below the cap, so a row retired in wave ``w`` reaches no
        product past it."""
        points = sphere.random_points(3000, 8, rng=1)
        queries = np.concatenate([points[:24], sphere.random_points(40, 8, rng=2)])
        index = sphere_annulus_index(points, (0.2, 0.8), t=1.0, n_tables=24, rng=3)
        inner = index._index
        stack = inner._stack
        products = []
        original = stack.components

        def counting(pts, first, last):
            products.append((first, last, np.array(pts, copy=True)))
            return original(pts, first, last)

        stack.components = counting
        block = inner.batch_query_hits(queries, max_hits=index.budget)
        del stack.components
        row_of = {q.tobytes(): i for i, q in enumerate(queries)}
        held = np.cumsum(block.full_table_counts, axis=1)
        retired_at = []
        for wave, (first, last, pts) in enumerate(products):
            assert (first, last) == (wave * WAVE, min((wave + 1) * WAVE, 24))
            before = held[:, first - 1] if first else np.zeros(64, dtype=np.int64)
            expected = np.flatnonzero(before < index.budget)
            assert [row_of[p.tobytes()] for p in pts] == expected.tolist()
        for i in range(64):
            waves = [
                w for w, (_, _, pts) in enumerate(products)
                if any(p.tobytes() == queries[i].tobytes() for p in pts)
            ]
            assert waves == list(range(len(waves)))
            retired_at.append(len(waves))
        # Rows retire in different waves: the count has something to see.
        assert min(retired_at) == 1 and max(retired_at) > 2
        np.testing.assert_array_equal(
            block.hits,
            DSHIndex(index._index.family, 24, rng=3, backend="dict")
            .build(points)
            .batch_query_hits(queries, max_hits=index.budget)
            .hits,
        )

    def test_one_resident_copy(self):
        """After the first query every filter's chunk-0 cache is a view of
        the stacked matrix, which is built once."""
        points = sphere.random_points(500, 16, rng=4)
        index = sphere_annulus_index(points, (0.3, 0.6), t=1.6, n_tables=6, rng=5)
        stack = index._index._stack
        index.query(points[0])
        matrix = stack.matrix()
        assert stack.matrix() is matrix
        offset = 0
        for pair in index._index._pairs:
            for part in pair.g.parts:
                _, z = next(part.projections.chunks())
                assert np.shares_memory(z, matrix)
                np.testing.assert_array_equal(z, matrix[offset : offset + z.shape[0]])
                offset += z.shape[0]
            # The data side holds the same projections object.
            assert [p.projections for p in pair.h.parts] == [
                p.projections for p in pair.g.parts
            ]
        assert offset == matrix.shape[0]
