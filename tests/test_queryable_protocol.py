"""Protocol conformance: every query surface is a drop-in Queryable.

Local application indexes (raw, annulus, hyperplane, range reporting),
a sharded index as built and as loaded, and the async serving
tier's synchronous handle must all satisfy the
:class:`repro.index.queryable.Queryable` protocol with the same
semantics: ``query`` returns a ``.stats``-carrying result and
``batch_query`` returns one such result per row, element-for-element
identical to a ``query`` loop.
"""

import numpy as np
import pytest

from repro.api import IndexSpec, build_index, save_index
from repro.data.synthetic import planted_euclidean_range
from repro.index.queryable import Queryable
from repro.serving import ShardedIndex, serve_in_thread
from repro.spaces import hamming, sphere

D = 16
N_TABLES = 6


def _raw_spec(shards=1):
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 3},
        n_tables=N_TABLES,
        seed=13,
        shards=shards,
    )


@pytest.fixture(scope="module")
def hamming_data():
    rng = np.random.default_rng(42)
    points = hamming.random_points(150, D, rng=rng)
    queries = np.concatenate(
        [points[:4], hamming.random_points(4, D, rng=rng)]
    )
    return points, queries


@pytest.fixture(scope="module")
def sphere_data():
    points = sphere.random_points(150, 8, rng=0)
    return points, points[:6]


@pytest.fixture(scope="module")
def range_data():
    inst = planted_euclidean_range(150, 8, 4.0, n_near=8, rng=3)
    return inst.points, np.atleast_2d(inst.query)


@pytest.fixture(scope="module")
def sharded_path(tmp_path_factory, hamming_data):
    points, _ = hamming_data
    path = tmp_path_factory.mktemp("queryable") / "srv"
    save_index(_raw_spec(shards=2).build(points), path)
    return path


def _surfaces(hamming_data, sphere_data, range_data, sharded_path):
    """(name, make, queries) for every queryable surface; ``make``
    returns (index, close_callable)."""
    h_points, h_queries = hamming_data
    s_points, s_queries = sphere_data
    r_points, r_queries = range_data

    def plain(index):
        return lambda: (index, lambda: None)

    return [
        ("raw", plain(_raw_spec().build(h_points)), h_queries),
        (
            "annulus",
            plain(
                build_index(
                    s_points, kind="annulus", family="annulus_sphere",
                    t=1.5, interval=(0.2, 0.6), n_tables=8, rng=1,
                )
            ),
            s_queries,
        ),
        (
            "hyperplane",
            plain(
                build_index(
                    s_points, kind="hyperplane", alpha=0.3, t=1.4,
                    n_tables=8, rng=2,
                )
            ),
            s_queries,
        ),
        (
            "range_reporting",
            plain(
                build_index(
                    r_points, kind="range_reporting", family="step_euclidean",
                    r_flat=4.0, level=0.12, n_components=3, r_report=4.0,
                    distance="euclidean_distance", n_tables=8, rng=4,
                )
            ),
            r_queries,
        ),
        (
            "sharded_built",
            plain(_raw_spec(shards=2).build(h_points)),
            h_queries,
        ),
        (
            "sharded_inprocess",
            lambda: ((idx := ShardedIndex.load(sharded_path)), idx.close),
            h_queries,
        ),
        (
            "served",
            lambda: (
                (
                    handle := serve_in_thread(
                        str(sharded_path), max_batch=8, max_wait_us=1000
                    )
                ),
                handle.close,
            ),
            h_queries,
        ),
    ]


@pytest.fixture(
    scope="module",
    params=[
        "raw",
        "annulus",
        "hyperplane",
        "range_reporting",
        "sharded_built",
        "sharded_inprocess",
        "served",
    ],
)
def surface(request, hamming_data, sphere_data, range_data, sharded_path):
    table = {
        name: (make, queries)
        for name, make, queries in _surfaces(
            hamming_data, sphere_data, range_data, sharded_path
        )
    }
    make, queries = table[request.param]
    index, close = make()
    yield request.param, index, queries
    close()


class TestQueryableConformance:
    def test_isinstance_queryable(self, surface):
        _, index, _ = surface
        assert isinstance(index, Queryable)

    def test_query_result_carries_stats(self, surface):
        _, index, queries = surface
        result = index.query(queries[0])
        stats = result.stats
        assert stats.retrieved >= stats.unique_candidates >= 0
        assert stats.tables_probed >= 0

    def test_batch_query_matches_query_loop(self, surface):
        _, index, queries = surface
        batched = list(index.batch_query(queries))
        assert len(batched) == queries.shape[0]
        for row, from_batch in zip(queries, batched):
            assert index.query(row).stats == from_batch.stats

    def test_raw_surfaces_agree_exactly(
        self, surface, hamming_data
    ):
        name, index, queries = surface
        if name not in {"raw", "sharded_built", "sharded_inprocess", "served"}:
            pytest.skip("candidate-retrieval surfaces only")
        points, _ = hamming_data
        reference = _raw_spec().build(points).batch_query(queries)
        observed = list(index.batch_query(queries))
        for ref, obs in zip(reference, observed):
            assert obs.indices == ref.indices
            assert obs.stats == ref.stats
