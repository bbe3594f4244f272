"""Generated differential oracle for every query surface.

The Theorem 6.1 index and its Section 6 applications are held to one
reference, computed here from the ``DictBackend`` single-query walk: for
each query row, every table's bucket in table order, looked up one row at
a time in the exact-bytes dict layout.  From that walk the test derives
what each surface must answer:

* raw retrieval: first-seen candidates and ``QueryStats`` under the
  Theorem 6.1 ``max_retrieved`` budget (stop after the table where the
  cumulative count reaches it);
* the block probes: ``batch_query_hits`` cut at ``max_hits`` hits, and
  ``packed_probe`` over one backend or a sharded index's shards both cut
  at hits and clipped at table granularity, with per-table counts before
  and after the cut;
* annulus search: the streaming ``budget_factor * L`` scan that stops at
  the first in-interval first occurrence (hyperplane queries are its
  ``(-alpha, alpha)`` case, ``query_many`` keeps going to ``k``);
* range reporting: a ``Counter`` over the whole walk.

Hypothesis draws the family, ``L``, ``n`` (0 and 1 included where the
surface allows them), the shard count, per-row budgets (None, 0, 1, an
exact table boundary, one past it, unbounded; mixed within a block) and
query blocks with repeated rows and empty buckets.  Every surface must
equal the reference: ``DSHIndex`` on both backends, a spec round trip
through JSON, a single bundle saved and loaded, ``ShardedIndex`` built and
loaded (packed only, with its probe also checked on its own), the
``serve_in_thread`` handle with mixed budgets sent concurrently, and the
annulus, hyperplane and range-reporting indexes.  A pinned grid adds one
fixed case per raw family, checked on every raw surface at every budget
kind on every run.
"""

import dataclasses
import itertools
import json
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec, load_index, save_index
from repro.index import (
    CandidateResult,
    Queryable,
    QueryStats,
    RangeReport,
    clip_batch_hits,
)
from repro.index.annulus import sphere_peak_placement
from repro.index.backends import _query_fingerprints, packed_probe
from repro.serving import ServingOptions, ShardedIndex, serve_in_thread
from repro.serving.sharded import shard_bounds
from repro.spaces import hamming, sphere

D = {"hamming": 16, "sphere": 8, "euclidean": 8}
# (registered family, point space, family params, largest power drawn).
RAW_FAMILIES = [
    ("bit_sampling", "hamming", {}, 6),
    ("simhash", "sphere", {}, 4),
    ("cross_polytope", "sphere", {}, 2),
    ("negated_cross_polytope", "sphere", {}, 1),
    ("euclidean_lsh", "euclidean", {"w": 1.0, "k": 1}, 2),
]
# Budgets per row; the two strings resolve, per row, to the cumulative
# count at a drawn table and one past it.
BUDGETS = [None, 0, 1, "boundary", "past", 10**9]
MAX_HITS = [None, 0, 1, 7, 10**9]


# -- data --------------------------------------------------------------------


def _cloud(space, n, rng):
    """``n`` points near three prototypes: exact and near copies collide
    in many tables, so ids repeat across tables and buckets span shards."""
    d = D[space]
    if space == "hamming":
        prototypes = hamming.random_points(3, d, rng=rng)
        points = prototypes[rng.integers(0, 3, size=n)]
        return points ^ (rng.random(points.shape) < 0.05).astype(points.dtype)
    prototypes = sphere.random_points(3, d, rng=rng)
    points = prototypes[rng.integers(0, 3, size=n)]
    points = points + 0.05 * rng.standard_normal(points.shape)
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return 2.0 * points if space == "euclidean" else points


def _fresh(space, m, rng):
    """``m`` points away from the data (they often land in empty buckets)."""
    if space == "hamming":
        return hamming.random_points(m, D[space], rng=rng)
    return _cloud(space, m, rng)


def _block(draw, space, points, rng):
    """A query block drawn with repetition from data rows and fresh points
    (0 rows included)."""
    fresh = _fresh(space, 3, rng)
    pool = fresh if not points.shape[0] else np.concatenate(
        [points[rng.integers(0, points.shape[0], size=3)], fresh]
    )
    rows = draw(st.lists(st.integers(0, pool.shape[0] - 1), min_size=0,
                         max_size=10))
    return pool[rows]


# -- the reference -----------------------------------------------------------


def _walk(index, queries):
    """THE reference: per query row, every table's bucket from one-row
    lookups in the dict layout, in table order."""
    inner = getattr(index, "_index", index)
    assert inner.backend == "dict"
    return [
        [
            inner._backend.bucket(t, pair.hash_query(row[None]))
            for t, pair in enumerate(inner._pairs)
        ]
        for row in queries
    ]


def _resolve(budget, row, table):
    if budget in ("boundary", "past"):
        reached = sum(b.size for b in row[: min(table, len(row) - 1) + 1])
        return reached + (budget == "past")
    return budget


def _scan(row, budget):
    """Theorem 6.1 retrieval over one walk row: first-seen candidates,
    stopping after the table where the cumulative count reaches
    ``budget``."""
    seen, retrieved, probed = {}, 0, 0
    for bucket in row:
        retrieved += bucket.size
        probed += 1
        seen.update(dict.fromkeys(bucket.tolist()))
        if budget is not None and retrieved >= budget:
            break
    cut = budget is not None and retrieved >= budget
    return CandidateResult(
        list(seen), QueryStats(retrieved, len(seen), probed, cut)
    )


def _cut(row, cap):
    """One walk row's hit stream cut at ``cap`` hits: (hits, per-table
    counts, truncated, pre-cut counts).  The pre-cut counts are those of
    the tables the cut stream reaches — a table is reached while fewer
    than ``cap`` hits are held as it begins — and 0 past them."""
    hits, counts, full = [], [], []
    for bucket in row:
        reached = cap is None or len(hits) < cap
        kept = bucket if cap is None else bucket[: max(cap - len(hits), 0)]
        hits += kept.tolist()
        counts.append(kept.size)
        full.append(bucket.size if reached else 0)
    return hits, counts, cap is not None and len(hits) == cap, full


def _clip(row, budget):
    """One walk row clipped to the tables its budgeted scan probes; those
    are the tables it reaches, kept whole, so the pre-clip counts are the
    clipped counts."""
    stats = _scan(row, budget).stats
    hits, counts, _, _ = _cut(row[: stats.tables_probed], None)
    counts += [0] * (len(row) - stats.tables_probed)
    return hits, counts, stats.truncated, counts


def _assert_block(block, rows, limit):
    """A ``BatchHits`` equals per-row (hits, counts, truncated, pre-clip
    counts); the pre-clip counts are recorded only when a ``limit`` cut
    the stream."""
    assert block.hits.astype(np.int64).tolist() == [
        h for hits, _, _, _ in rows for h in hits
    ]
    assert block.offsets.tolist() == np.cumsum(
        [0] + [len(hits) for hits, _, _, _ in rows]
    ).tolist()
    assert block.table_counts.tolist() == [counts for _, counts, _, _ in rows]
    assert block.truncated.tolist() == [cut for _, _, cut, _ in rows]
    if limit is None:
        assert block.full_table_counts is None
    else:
        assert block.full_table_counts.tolist() == [full for *_, full in rows]
    for i, (hits, counts, _, _) in enumerate(rows):
        if hits:
            last = max(t for t, c in enumerate(counts) if c)
            assert block.table_of(i, len(hits) - 1) == last


def _assert_probe(index, queries, walk, limits):
    """``packed_probe`` over a packed index's backend, or over a sharded
    index's shard backends at their id offsets, equals every walk row
    clipped at table granularity and cut at exactly that many hits, for
    each limit, with the pre-clip counts whenever it cut."""
    if isinstance(index, ShardedIndex):
        parts = [(shard._backend, offset) for shard, offset
                 in zip(index._shards, index.bounds[:-1].tolist())]
        index = index._shards[0]
    else:
        parts = [(index._backend, 0)]
    qfps = _query_fingerprints(index._query_components(queries))
    for limit in set(limits):
        clipped = [_clip(ref, limit) for ref in walk]
        cut = [_cut(ref, limit) for ref in walk]
        # The fingerprint matrix, and components (lazy, or hashed into a
        # plain list) fingerprinted wave by wave.
        lazy = index._query_components(queries)
        hashed = list(index._query_components(queries))
        for source in (qfps, lazy, hashed):
            _assert_block(packed_probe(parts, source, max_hits=limit),
                          cut, limit)
            _assert_block(packed_probe(parts, source, max_retrieved=limit),
                          clipped, limit)


def _annulus(index, query, row, k=1):
    """The streaming Theorem 6.1 annulus scan over one walk row: up to
    ``k`` in-interval first occurrences, each with the stats at its hit,
    plus the stats where the scan stopped without its ``k``-th."""
    lo, hi = index.interval
    seen, examined, found = set(), 0, []
    for t, bucket in enumerate(row):
        for i in bucket.tolist():
            examined += 1
            if i not in seen:
                seen.add(i)
                row_i = index.points[i : i + 1]
                value = float(index.proximity(query, row_i)[0])
                if lo <= value <= hi:
                    stats = QueryStats(examined, len(seen), t + 1)
                    found.append((i, value, stats))
                    if len(found) == k:
                        return found, None
            if examined >= index.budget:
                return found, QueryStats(examined, len(seen), t + 1, True)
    return found, QueryStats(examined, len(seen), len(row))


def _assert_annulus(result, found, stopped):
    if found:
        index, value, stats = found[0]
        assert (result.index, result.stats) == (index, stats)
        assert result.proximity == pytest.approx(value, rel=1e-9, abs=1e-12)
    else:
        assert (result.index, result.stats) == (None, stopped)
        assert np.isnan(result.proximity)


def _range(index, query, row):
    """Range reporting over one walk row: every hit counted, distinct
    candidates in first-seen order, the in-range ones reported."""
    hits = Counter(i for bucket in row for i in bucket.tolist())
    candidates = list(hits)
    distances = (
        index.distance(query, index.points[candidates]) if candidates else []
    )
    reported = tuple(
        i for i, dist in zip(candidates, distances) if dist <= index.r_report
    )
    return RangeReport(
        stats=QueryStats(sum(hits.values()), len(hits), len(row)),
        indices=reported,
        in_range_retrievals=sum(hits[i] for i in reported),
    )


# -- raw retrieval -----------------------------------------------------------


@st.composite
def raw_cases(draw):
    name, space, params, max_power = draw(st.sampled_from(RAW_FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = _cloud(space, draw(st.integers(0, 40)), rng)
    queries = _block(draw, space, points, rng)
    spec = IndexSpec(
        kind="raw",
        family=name,
        family_params={
            "d": D[space], **params,
            "power": draw(st.integers(1, max_power)),
        },
        n_tables=draw(st.integers(1, 6)),
        backend=draw(st.sampled_from(["dict", "packed"])),
        seed=draw(st.integers(0, 100)),
    )
    budgets = draw(st.lists(st.sampled_from(BUDGETS), min_size=len(queries),
                            max_size=len(queries)))
    # Everything else the surfaces are built or probed with.
    knobs = {
        "table": draw(st.integers(0, 5)),
        "max_hits": draw(st.sampled_from(MAX_HITS)),
        "workers": draw(st.sampled_from([None, 2])),
        "shards": draw(st.integers(1, 4)),
        "mmap": draw(st.booleans()),
        "verify": draw(st.sampled_from(["off", "lazy", "eager"])),
    }
    return spec, points, queries, budgets, knobs


def _raw_reference(spec, points, queries, budgets, table):
    """The dict-layout reference index, each row's walk and each row's
    budget resolved against it."""
    oracle = dataclasses.replace(spec, backend="dict").build(points)
    walk = _walk(oracle, queries)
    return oracle, walk, [
        _resolve(b, row, table) for b, row in zip(budgets, walk)
    ]


def _assert_raw_surface(index, queries, walk, budgets):
    """``query`` per row at its own budget and ``batch_query`` per
    distinct budget both equal the reference scan."""
    assert isinstance(index, Queryable)
    for row, ref, budget in zip(queries, walk, budgets):
        assert index.query(row, max_retrieved=budget) == _scan(ref, budget)
    for budget in set(budgets):
        assert index.batch_query(queries, max_retrieved=budget) == [
            _scan(ref, budget) for ref in walk
        ]


# The grid below pins every family, surface and budget kind; these draws
# vary the rest (n, L, shard count, blocks, build threads, load options).
@given(raw_cases())
@settings(max_examples=25, deadline=None)
def test_raw_surfaces_equal_the_dict_walk(case):
    spec, points, queries, budgets, knobs = case
    oracle, walk, budgets = _raw_reference(
        spec, points, queries, budgets, knobs["table"]
    )
    n_tables = spec.n_tables
    sizes = sorted(oracle.bucket_sizes())
    cap = knobs["max_hits"]

    for backend in ("dict", "packed"):
        index = dataclasses.replace(spec, backend=backend).build(
            points, workers=knobs["workers"]
        )
        assert index.backend == backend
        _assert_raw_surface(index, queries, walk, budgets)
        assert sorted(index.bucket_sizes()) == sizes
        assert sum(sizes) == points.shape[0] * n_tables

        # The block probes behind every batch path.
        comps = index._query_components(queries)
        hits = index.batch_query_hits(queries, max_hits=cap)
        _assert_block(hits, [_cut(ref, cap) for ref in walk], cap)
        assert hits.hits.dtype == np.int64
        unclipped = index._backend.batch_query_hits(comps)
        assert clip_batch_hits(unclipped, n_tables, None) is unclipped
        for budget in set(budgets):
            _assert_block(clip_batch_hits(unclipped, n_tables, budget),
                          [_clip(ref, budget) for ref in walk], budget)
        if backend == "packed":
            _assert_probe(index, queries, walk, [*budgets, cap])

    wire = json.loads(json.dumps(spec.to_dict()))
    _assert_raw_surface(
        IndexSpec.from_dict(wire).build(points), queries, walk, budgets
    )
    with tempfile.TemporaryDirectory() as root:
        save_index(spec.build(points), f"{root}/one")
        loaded = load_index(
            f"{root}/one", options=ServingOptions(mmap=knobs["mmap"])
        )
        assert loaded.backend == spec.backend
        _assert_raw_surface(loaded, queries, walk, budgets)

    n_shards = knobs["shards"]
    if points.shape[0] < n_shards:
        return
    sharded_spec = dataclasses.replace(spec, shards=n_shards, backend="packed")
    if n_shards > 1:
        sharded = sharded_spec.build(points, workers=knobs["workers"])
        assert isinstance(sharded, ShardedIndex)
    else:
        sharded = ShardedIndex(points, sharded_spec)
    assert sharded.n_points == points.shape[0]
    _assert_raw_surface(sharded, queries, walk, budgets)
    _assert_probe(sharded, queries, walk, [*budgets, cap])

    verify = knobs["verify"]
    with tempfile.TemporaryDirectory() as root:
        assert save_index(sharded, f"{root}/srv").name == "srv.json"
        loaded = load_index(
            f"{root}/srv",
            options=ServingOptions(mmap=knobs["mmap"], verify=verify),
        )
        assert isinstance(loaded, ShardedIndex)
        assert loaded.spec == sharded_spec
        assert loaded.backend == "packed"
        assert loaded.bounds.tolist() == shard_bounds(
            points.shape[0], n_shards
        ).tolist()
        assert loaded.options.verify == verify
        assert loaded.health()["verify"] == verify
        _assert_raw_surface(loaded, queries, walk, budgets)


@given(raw_cases())
@settings(max_examples=8, deadline=None)
def test_served_handle_equals_the_dict_walk(case):
    """Every row sent concurrently with its own budget: requests coalesce
    into mixed-budget batches, and each answer is the reference's."""
    spec, points, queries, budgets, knobs = case
    _, walk, budgets = _raw_reference(
        spec, points, queries, budgets, knobs["table"]
    )
    n_shards = min(knobs["shards"], max(points.shape[0], 1))
    with tempfile.TemporaryDirectory() as root:
        # A sharded index is packed only; one shard keeps the drawn layout.
        backend = spec.backend if n_shards == 1 else "packed"
        save_index(
            dataclasses.replace(spec, shards=n_shards, backend=backend)
            .build(points),
            f"{root}/srv",
        )
        handle = serve_in_thread(
            f"{root}/srv", max_batch=max(len(queries), 1), max_wait_us=200_000
        )
        try:
            assert isinstance(handle, Queryable)
            with ThreadPoolExecutor(max_workers=max(len(queries), 1)) as pool:
                served = list(pool.map(handle.query, queries, budgets))
            assert [s.result for s in served] == [
                _scan(ref, budget) for ref, budget in zip(walk, budgets)
            ]
            for s in served:
                assert s.stats == s.result.stats
                assert s.indices == s.result.indices
            block_budget = budgets[0] if budgets else None
            assert [
                s.result for s in handle.batch_query(
                    queries, max_retrieved=block_budget
                )
            ] == [_scan(ref, block_budget) for ref in walk]
        finally:
            handle.close()


# -- the pinned grid ---------------------------------------------------------

GRID_FAMILIES = RAW_FAMILIES + [
    ("annulus_sphere", "sphere", {"alpha_max": 0.3, "t": 1.5}, None)
]
SURFACES = ["dict", "packed", "spec-json", "bundle", "sharded",
            "sharded-loaded", "probe", "served"]


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """Per family: the fixed case, its walk and every surface built once."""
    cases, handles = {}, []

    def case(family):
        if family in cases:
            return cases[family]
        _, space, params, power = next(
            f for f in GRID_FAMILIES if f[0] == family
        )
        rng = np.random.default_rng(7)
        points = _cloud(space, 40, rng)
        queries = np.concatenate([points[[0, 0, 17]],
                                  _fresh(space, 1, rng)])
        spec = IndexSpec(
            kind="raw", family=family, n_tables=5, seed=3,
            family_params={"d": D[space], **params,
                           **({"power": power} if power else {})},
        )
        root = tmp_path_factory.mktemp(family)
        save_index(spec.build(points), root / "one")
        sharded = dataclasses.replace(spec, shards=3).build(points)
        save_index(sharded, root / "srv")
        handles.append(serve_in_thread(
            str(root / "srv"), max_batch=len(queries), max_wait_us=200_000
        ))
        wire = json.loads(json.dumps(spec.to_dict()))
        surfaces = {
            "dict": dataclasses.replace(spec, backend="dict").build(points),
            "packed": spec.build(points),
            "spec-json": IndexSpec.from_dict(wire).build(points),
            "bundle": load_index(str(root / "one")),
            "sharded": sharded,
            "sharded-loaded": load_index(
                str(root / "srv"), options=ServingOptions(mmap=True)
            ),
            "probe": sharded,
            "served": handles[-1],
        }
        cases[family] = (queries, _walk(surfaces["dict"], queries), surfaces)
        return cases[family]

    yield case
    for handle in handles:
        handle.close()


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("family", [f[0] for f in GRID_FAMILIES])
def test_grid_cell_equals_the_dict_walk(grid, family, surface, budget):
    queries, walk, surfaces = grid(family)
    index = surfaces[surface]
    budgets = [_resolve(budget, row, 1) for row in walk]
    expected = [_scan(ref, b) for ref, b in zip(walk, budgets)]
    if surface == "served":
        with ThreadPoolExecutor(max_workers=len(queries)) as pool:
            served = list(pool.map(index.query, queries, budgets))
        assert [s.result for s in served] == expected
        return
    if surface == "probe":
        _assert_probe(index, queries, walk, budgets)
        return
    _assert_raw_surface(index, queries, walk, budgets)
    if surface == "packed":
        _assert_probe(index, queries, walk, budgets)
    if surface == "dict":
        unclipped = index.batch_query_hits(queries)
        for b in set(budgets):
            _assert_block(clip_batch_hits(unclipped, index.n_tables, b),
                          [_clip(ref, b) for ref in walk], b)


# -- applications ------------------------------------------------------------

# Hamming-distance intervals: distance 0 only, near, far, everything.
HAMMING_INTERVALS = [(-0.5, 0.5), (0.5, 2.5), (2.5, 8.5), (-0.5, 16.5)]
SPHERE_INTERVALS = [(0.2, 0.6), (0.5, 0.95), (-0.3, 0.3)]


def _annulus_spec(draw):
    family = draw(
        st.sampled_from(["bit_sampling", "simhash", "annulus_sphere"])
    )
    if family == "bit_sampling":
        return "hamming", IndexSpec(
            kind="annulus", family=family,
            family_params={"d": D["hamming"],
                           "power": draw(st.integers(1, 3))},
            n_tables=1,
            options={"interval": draw(st.sampled_from(HAMMING_INTERVALS)),
                     "proximity": "hamming_distance"},
        )
    interval = draw(st.sampled_from(SPHERE_INTERVALS))
    params = (
        {"power": draw(st.integers(1, 3))} if family == "simhash" else
        {"alpha_max": sphere_peak_placement(interval), "t": 1.5}
    )
    return "sphere", IndexSpec(
        kind="annulus", family=family,
        family_params={"d": D["sphere"], **params},
        n_tables=1,
        options={"interval": interval, "proximity": "inner_product"},
    )


def _range_spec(draw):
    family = draw(st.sampled_from(["bit_sampling", "step_euclidean",
                                   "euclidean_lsh"]))
    if family == "bit_sampling":
        return "hamming", IndexSpec(
            kind="range_reporting", family=family,
            family_params={"d": D["hamming"],
                           "power": draw(st.integers(1, 3))},
            n_tables=1,
            options={"r_report": draw(st.sampled_from([1.0, 2.0, 4.0])),
                     "distance": "hamming_distance"},
        )
    params = (
        {"r_flat": 1.0, "level": 0.12, "n_components": 3}
        if family == "step_euclidean" else {"w": 2.0, "k": 0, "power": 2}
    )
    return "euclidean", IndexSpec(
        kind="range_reporting", family=family,
        family_params={"d": D["euclidean"], **params},
        n_tables=1,
        options={"r_report": draw(st.sampled_from([0.5, 1.0, 2.0])),
                 "distance": "euclidean_distance"},
    )


@st.composite
def app_cases(draw):
    kind = draw(st.sampled_from(["annulus", "hyperplane", "range_reporting"]))
    if kind == "annulus":
        space, spec = _annulus_spec(draw)
    elif kind == "hyperplane":
        space, spec = "sphere", IndexSpec(
            kind="hyperplane", n_tables=1,
            options={"alpha": draw(st.sampled_from([0.2, 0.3, 0.5])),
                     "t": 1.4},
        )
    else:
        space, spec = _range_spec(draw)
    if kind != "range_reporting":
        factor = draw(st.sampled_from([0.5, 1.0, 2.0, 8.0]))
        spec = dataclasses.replace(
            spec, options={**spec.options, "budget_factor": factor}
        )
    spec = dataclasses.replace(
        spec, n_tables=draw(st.integers(1, 6)), seed=draw(st.integers(0, 100))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = _cloud(space, draw(st.integers(0, 30)), rng)
    queries = _block(draw, space, points, rng)
    return (spec, points, queries, draw(st.sampled_from(["dict", "packed"])),
            draw(st.integers(1, 4)))


def _repeated_ids_case():
    """Two copies of the origin collide with it in every table, so the
    examined prefix repeats ids: seed 10 reports the in-range point late
    for the origin queries and runs ``near`` out of budget."""
    origin = np.zeros(8, dtype=np.int8)
    far, near = origin.copy(), origin.copy()
    far[:6] = 1                        # distance 6: in range
    near[7] = 1                        # distance 7 from far: out of range
    spec = IndexSpec(
        kind="annulus", family="bit_sampling", family_params={"d": 8},
        n_tables=4, seed=10,
        options={"interval": (5.5, 6.5), "proximity": "hamming_distance",
                 "budget_factor": 2.0},
    )
    points = np.stack([origin, origin, far])
    return spec, points, np.stack([origin, origin, near]), "packed", 3


def _one_bucket_case():
    """Identical points share one bucket per table, so every in-range id
    waits behind a budget of two hits: ``query_many`` must stop at two."""
    spec = IndexSpec(
        kind="annulus", family="bit_sampling", family_params={"d": 8},
        n_tables=4, seed=0,
        options={"interval": (-0.5, 0.5), "proximity": "hamming_distance",
                 "budget_factor": 0.5},
    )
    points = np.zeros((3, 8), dtype=np.int8)
    return spec, points, points[:2], "dict", 3


def _empty_block_case():
    """A budgeted annulus block of no rows answers ``[]`` on both
    backends."""
    spec, points, _, _, k = _repeated_ids_case()
    return spec, points, points[:0], "packed", k


@given(app_cases())
@example(_repeated_ids_case())
@example(_one_bucket_case())
@example(_empty_block_case())
@settings(max_examples=60, deadline=None)
def test_application_surfaces_equal_the_dict_walk(case):
    spec, points, queries, loaded_backend, k = case
    oracle = dataclasses.replace(spec, backend="dict").build(points)
    queries = queries.astype(np.float64)
    walk = _walk(oracle, queries)
    if spec.kind == "range_reporting":
        expected = [_range(oracle, q, row) for q, row in zip(queries, walk)]
    else:
        expected = [_annulus(oracle, q, row) for q, row in zip(queries, walk)]

    with tempfile.TemporaryDirectory() as root:
        surfaces = []
        for backend in ("dict", "packed"):
            index = dataclasses.replace(spec, backend=backend).build(points)
            surfaces.append(index)
            if backend == loaded_backend:
                save_index(index, f"{root}/app")
                surfaces.append(load_index(f"{root}/app"))
                wire = json.loads(json.dumps(index.spec.to_dict()))
                surfaces.append(IndexSpec.from_dict(wire).build(points))
        for index in surfaces:
            assert isinstance(index, Queryable)
            if spec.kind == "range_reporting":
                assert [index.query(q) for q in queries] == expected
                assert index.batch_query(queries) == expected
                continue
            batched = index.batch_query(queries)
            assert len(batched) == len(expected)
            for q, result, (found, stopped) in zip(queries, batched, expected):
                _assert_annulus(result, found, stopped)
                _assert_annulus(index.query(q), found, stopped)
            # A k past the budget runs every scan to its stop.
            for (q, row), cap in itertools.product(
                zip(queries, walk), (k, index.budget + 1)
            ):
                found, _ = _annulus(oracle, q, row, cap)
                many = index.query_many(q, cap)
                assert [(r.index, r.stats) for r in many] == [
                    (i, stats) for i, _, stats in found
                ]
