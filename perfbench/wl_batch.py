"""Closed-loop batch workloads: ``batch-dense`` and ``annulus-sphere``.

``batch-dense`` is backend-bound (clustered Hamming data, ~6.6k hits per
query of which ~550 are distinct); ``annulus-sphere`` is hash-bound (the
Theorem 6.4 sphere family, with the application's proximity checks on
top).  An optimisation of one of the two layers should move one workload
and leave the other unchanged.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.api import IndexSpec
from repro.index import AnnulusIndex, DSHIndex, QueryStats, sphere_annulus_index
from repro.index.annulus import sphere_family_for_interval
from repro.spaces import hamming, sphere
from repro.utils.rng import rng_from_state

from common import (
    Context,
    DigestBook,
    Outcome,
    Timing,
    candidate_digest,
    closed_loop,
    clustered_hamming,
    peak_rss_mb,
    put_closed_loop,
    same_candidates,
)
from tracing import Tracer, per_request, self_times
from traced import (
    TracedFamily,
    TracedPackedBackend,
    fingerprint_backend,
    replay_hits,
    replay_probe,
    same_hits,
)

BLOCK = 64
N_BLOCKS = 32
SETUPS = 5
#: Host-speed samples taken before each set-up trial.
SPEED_SAMPLES = 10
#: Digest every this many measured calls to catch a call that answers
#: differently from an earlier call with the same input.
DIGEST_EVERY = 4
#: Traced blocks at least (covers every (block, budget) pair once).
MIN_TRACED = 96
#: Single-row probes timed for ``backends.probe_ms.bs1``.
BS1_PROBES = 256
#: Request id of the traced set-up spans (blocks count up from 0).
SETUP_REQUEST = -1

DENSE_N, DENSE_D, DENSE_CLUSTERS = 50_000, 64, 100
DENSE_POWER, DENSE_L = 16, 16
DENSE_BUDGET = 8 * DENSE_L
#: Two unbudgeted blocks per budgeted one.  An even mix of the two modes
#: (~11 ms and ~5 ms) would put the median in the gap between them, where
#: it jumps between the slowest budgeted and fastest unbudgeted call.
DENSE_CYCLE: tuple[int | None, ...] = (None, None, DENSE_BUDGET)
DICT_CHECKS = 6

ANN_N, ANN_D, ANN_L = 50_000, 32, 32
ANN_BAND = (0.5, 0.65)
ANN_T = 1.8
LOOP_CHECKS = 3
#: Annulus builds take seconds each, so fewer set-up trials.
ANN_SETUPS = 3


def _ms_median(by_request: dict[int, float]) -> float:
    return statistics.median(by_request.values()) * 1e3 if by_request else 0.0


def _put_trace_common(
    out: Outcome, ctx: Context, root: str, reference: str,
) -> dict[str, dict[int, float]]:
    spans = ctx.tracer.spans
    selves = self_times(spans)
    totals = per_request(spans, selves, self_time=False)
    own = per_request(spans, selves, self_time=True)
    setup = [s for s in spans if s.name == "setup"]
    if setup:
        rid = setup[0].request_id
        out.put("families.hash_data_s", totals["families.hash_data"][rid], "s")
        out.put("backends.build_s", totals["backends.build"][rid], "s")
    blocks = totals[root]
    out.put("families.hash_query_ms", _ms_median(
        {r: totals["families.hash_query"].get(r, 0.0) for r in blocks}), "ms")
    out.put("backends.probe_ms", _ms_median(
        {r: totals["backends.probe"][r] for r in blocks}), "ms")
    out.put("core.fingerprint_ms", _ms_median(totals["core.fingerprint"]), "ms")
    out.put("backends.lookup_gather_ms",
            _ms_median(totals["backends.lookup_gather"]), "ms")
    traced = _ms_median(blocks)
    layer_sum = _ms_median({
        r: own[root][r] + totals["families.hash_query"].get(r, 0.0)
        + totals["backends.probe"][r]
        for r in blocks
    })
    out.put("trace.batch_ms", traced, "ms")
    out.put("trace.layer_sum_ms", layer_sum, "ms")
    out.put("trace.overhead_ms", traced - _ms_median(totals[reference]), "ms")
    out.notes["traced_blocks"] = len(blocks)
    return own


def _count_metrics(out: Outcome, stats: Sequence[QueryStats]) -> None:
    """Workload-shape counts over one pass of every distinct input; they
    repeat exactly for a seed."""
    retrieved = sum(s.retrieved for s in stats)
    unique = sum(s.unique_candidates for s in stats)
    out.put("backends.retrieved_per_query", retrieved / len(stats), "count")
    out.put("backends.unique_per_query", unique / len(stats), "count")
    out.put("backends.unique_ratio", unique / retrieved if retrieved else 0.0, "ratio")
    out.put("backends.truncated_share",
            sum(s.truncated for s in stats) / len(stats), "ratio")
    out.put("backends.tables_probed_mean",
            sum(s.tables_probed for s in stats) / len(stats), "count")


def time_bs1(ctx: Context, backend: TracedPackedBackend, comps: list[np.ndarray]) -> float:
    """Median milliseconds of single-row probes straight into the backend:
    the fixed cost a 1-row block (an uncoalesced served request) pays."""
    rows = comps[0].shape[0]
    for j in range(BS1_PROBES):
        one = [c[j % rows : j % rows + 1] for c in comps]
        ctx.tracer.request_id = SETUP_REQUEST - 1 - j
        with ctx.tracer.span("backends.probe.bs1"):
            backend.batch_query(one)
    spans = [s.duration for s in ctx.tracer.spans if s.name == "backends.probe.bs1"]
    return statistics.median(spans) * 1e3


# -- batch-dense --------------------------------------------------------------


def run_dense(ctx: Context) -> Outcome:
    """Closed loop of 64-query ``DSHIndex.batch_query`` blocks over a
    clustered Hamming index (packed backend)."""
    out = Outcome()
    rng = ctx.rng(0)
    prototypes = hamming.random_points(DENSE_CLUSTERS, DENSE_D, rng=rng)
    points = clustered_hamming(prototypes, DENSE_N, rng)
    queries = clustered_hamming(prototypes, N_BLOCKS * BLOCK, rng).reshape(
        N_BLOCKS, BLOCK, DENSE_D
    )
    spec = IndexSpec(
        kind="raw", family="bit_sampling",
        family_params={"d": DENSE_D, "power": DENSE_POWER},
        n_tables=DENSE_L, backend="packed", seed=ctx.derived_seed(1),
    )
    setups: list[Timing] = []
    index: Any = None
    for _ in range(1 if ctx.trace else SETUPS):
        ctx.speed.sample(SPEED_SAMPLES)
        start = time.perf_counter()
        index = spec.build(points)
        setups.append((start, time.perf_counter() - start))

    def key(i: int) -> tuple[int, int | None]:
        return i % N_BLOCKS, DENSE_CYCLE[i % len(DENSE_CYCLE)]

    def call(i: int) -> Any:
        block, budget = key(i)
        return index.batch_query(queries[block], max_retrieved=budget)

    for i in range(2 * len(DENSE_CYCLE)):
        call(i)
    if ctx.trace:
        return _trace_dense(ctx, out, index, points, queries, key, call)

    book = DigestBook(candidate_digest, out)
    latencies = closed_loop(
        call, ctx.seconds,
        lambda i, r: book.observe(key(i), r) if i % DIGEST_EVERY == 0 else None,
        ctx.speed,
    )
    out.attempted = len(latencies)
    put_closed_loop(out, latencies, BLOCK, setups, ctx.speed)
    out.put("peak_rss_mb", peak_rss_mb(), "MiB")

    # Correctness: every (block, budget) pair against the stage-by-stage
    # replay, a sample against the dict (reference) backend.
    scratch = Tracer()
    replay, backend, keyed = _dense_replay(scratch, index, points)
    reference = DSHIndex(
        index.family, DENSE_L, rng_from_state(index.pair_rng_state),
        backend="dict",
    ).build(points)
    pairs = [(b, budget) for b in range(N_BLOCKS) for budget in (None, DENSE_BUDGET)]
    for n, (block, budget) in enumerate(pairs):
        result = index.batch_query(queries[block], max_retrieved=budget)
        ok = book.confirm((block, budget), result)
        ok = ok and same_candidates(
            replay.batch_query(queries[block], max_retrieved=budget), result)
        ok = ok and same_candidates(
            replay_probe(keyed, backend.last_comps, DENSE_N, budget, scratch),
            result)
        if n < DICT_CHECKS:
            ok = ok and same_candidates(
                reference.batch_query(queries[block], max_retrieved=budget),
                result)
        if not ok:
            out.fail(1, f"block {block} budget {budget}: wrong candidates")
    out.notes["digests_checked"] = book.observed
    return out


def _dense_replay(
    tracer: Tracer, index: Any, points: np.ndarray
) -> tuple[DSHIndex, TracedPackedBackend, Any]:
    """Rebuild ``index`` publicly with timed hash and backend calls, plus
    the fingerprint-keyed backend the stage replay probes."""
    backend = TracedPackedBackend(tracer)
    tracer.request_id = SETUP_REQUEST
    with tracer.span("setup"):
        replay = DSHIndex(
            TracedFamily(index.family, tracer), index.n_tables,
            rng_from_state(index.pair_rng_state), backend=backend,
        ).build(points)
    tables = [p.hash_data(points) for p in index.family.sample_pairs(
        index.n_tables, rng_from_state(index.pair_rng_state))]
    return replay, backend, fingerprint_backend(tables)


def _trace_dense(
    ctx: Context, out: Outcome, index: Any, points: np.ndarray,
    queries: np.ndarray, key: Callable[[int], tuple[int, int | None]],
    call: Callable[[int], Any],
) -> Outcome:
    tracer = ctx.tracer
    replay, backend, keyed = _dense_replay(tracer, index, points)
    stats: list[QueryStats] = []
    stop = time.perf_counter() + ctx.seconds
    i = 0
    while i < MIN_TRACED or time.perf_counter() < stop:
        block, budget = key(i)
        tracer.request_id = i
        with tracer.span("lsh_index.batch_query.untraced"):
            expected = call(i)
        with tracer.span("lsh_index.batch_query"):
            got = replay.batch_query(queries[block], max_retrieved=budget)
        staged = replay_probe(keyed, backend.last_comps, DENSE_N, budget, tracer)
        if not (same_candidates(got, expected) and same_candidates(staged, expected)):
            out.fail(1, f"block {block} budget {budget}: replay differs")
        if i < N_BLOCKS * len(DENSE_CYCLE):
            stats.extend(r.stats for r in expected)
        i += 1
    out.attempted = i
    out.put("backends.probe_ms.bs1", time_bs1(ctx, backend, backend.last_comps), "ms")
    own = _put_trace_common(out, ctx, "lsh_index.batch_query",
                            "lsh_index.batch_query.untraced")
    out.put("lsh_index.self_ms", _ms_median(own["lsh_index.batch_query"]), "ms")
    totals = per_request(tracer.spans, self_times(tracer.spans), self_time=False)
    out.put("backends.dedup_ms", _ms_median(totals["backends.dedup"]), "ms")
    _count_metrics(out, stats)
    return out


# -- annulus-sphere -----------------------------------------------------------


def _annulus_digest(results: Sequence[Any]) -> int:
    return hash(tuple(
        (-1 if r.index is None else r.index, r.stats.retrieved,
         r.stats.unique_candidates, r.stats.tables_probed, r.stats.truncated)
        for r in results
    ))


def _same_annulus(a: Sequence[Any], b: Sequence[Any]) -> bool:
    """Same reported point and stats (proximities may differ in the last
    bit between the batched and single-query paths)."""
    return len(a) == len(b) and all(
        x.index == y.index and x.stats == y.stats for x, y in zip(a, b)
    )


def run_annulus(ctx: Context) -> Outcome:
    """Closed loop of 64-query ``AnnulusIndex.batch_query`` blocks, Theorem
    6.4 sphere instantiation."""
    out = Outcome()
    rng = ctx.rng(0)
    points = sphere.random_points(ANN_N, ANN_D, rng=rng)
    queries = sphere.random_points(N_BLOCKS * BLOCK, ANN_D, rng=rng).reshape(
        N_BLOCKS, BLOCK, ANN_D
    )
    seed = ctx.derived_seed(1)
    setups: list[Timing] = []
    index: Any = None
    for _ in range(1 if ctx.trace else ANN_SETUPS):
        ctx.speed.sample(SPEED_SAMPLES)
        start = time.perf_counter()
        index = sphere_annulus_index(points, ANN_BAND, t=ANN_T, n_tables=ANN_L, rng=seed)
        setups.append((start, time.perf_counter() - start))

    def call(i: int) -> Any:
        return index.batch_query(queries[i % N_BLOCKS])

    for i in range(2):
        call(i)
    if ctx.trace:
        return _trace_annulus(ctx, out, index, points, queries, seed, call)

    book = DigestBook(_annulus_digest, out)
    latencies = closed_loop(
        call, ctx.seconds,
        lambda i, r: book.observe(i % N_BLOCKS, r) if i % DIGEST_EVERY == 0 else None,
        ctx.speed,
    )
    out.attempted = len(latencies)
    put_closed_loop(out, latencies, BLOCK, setups, ctx.speed)
    out.put("peak_rss_mb", peak_rss_mb(), "MiB")
    for block in range(LOOP_CHECKS):
        result = call(block)
        loop = [index.query(q) for q in queries[block]]
        if not (book.confirm(block, result) and _same_annulus(loop, result)):
            out.fail(1, f"block {block}: batch differs from the query loop")
    out.notes["digests_checked"] = book.observed
    return out


def _trace_annulus(
    ctx: Context, out: Outcome, index: Any, points: np.ndarray,
    queries: np.ndarray, seed: int, call: Callable[[int], Any],
) -> Outcome:
    tracer = ctx.tracer
    backend = TracedPackedBackend(tracer)
    family = sphere_family_for_interval(ANN_D, ANN_BAND, ANN_T)
    tracer.request_id = SETUP_REQUEST
    with tracer.span("setup"):
        replay = AnnulusIndex(
            points, TracedFamily(family, tracer), interval=index.interval,
            proximity=index.proximity, n_tables=ANN_L, rng=seed,
            backend=backend,
        )
    tables = [p.hash_data(points) for p in family.sample_pairs(
        ANN_L, np.random.default_rng(seed))]
    keyed = fingerprint_backend(tables)
    results: list[Any] = []
    stats: list[QueryStats] = []
    evals = 0
    stop = time.perf_counter() + ctx.seconds
    i = 0
    while i < MIN_TRACED or time.perf_counter() < stop:
        tracer.request_id = i
        with tracer.span("annulus.batch_query.untraced"):
            expected = call(i)
        with tracer.span("annulus.batch_query"):
            got = replay.batch_query(queries[i % N_BLOCKS])
        hits = backend.last_hits
        staged = replay_hits(keyed, backend.last_comps, replay.budget, tracer)
        if not (_same_annulus(got, expected) and hits is not None
                and same_hits(staged, hits)):
            out.fail(1, f"block {i % N_BLOCKS}: replay differs")
        if i < N_BLOCKS and hits is not None:
            results.extend(expected)
            for q in range(hits.n_queries):
                segment = hits.segment(q)
                truncated = bool(hits.truncated[q])
                distinct = int(np.unique(segment).size)
                evals += distinct
                stats.append(QueryStats(
                    retrieved=int(segment.size),
                    unique_candidates=distinct,
                    tables_probed=(hits.table_of(q, segment.size - 1) + 1
                                   if truncated else ANN_L),
                    truncated=truncated,
                ))
        i += 1
    out.attempted = i
    own = _put_trace_common(out, ctx, "annulus.batch_query",
                            "annulus.batch_query.untraced")
    out.put("annulus.self_ms", _ms_median(own["annulus.batch_query"]), "ms")
    _count_metrics(out, stats)
    out.put("annulus.found_share",
            sum(r.found for r in results) / len(results), "ratio")
    out.put("annulus.examined_per_query",
            sum(r.stats.retrieved for r in results) / len(results), "count")
    out.put("annulus.proximity_evals_per_query", evals / len(results), "count")
    return out

