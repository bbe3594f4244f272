"""``sharded-pool``: closed loop of budgeted blocks through a 4-shard
``ShardedIndex`` served by a 2-process pool.

The only workload that runs ``serving.sharded``'s pool, shared-memory
transport and merge.  The traced run also serves the same blocks with
``workers=None`` (shards queried in-process), the pool-free reference a
pool deletion would have to reach.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from multiprocessing import resource_tracker
from typing import Any

from repro.api import IndexSpec, index_paths, verify_saved_index
from repro.serving import ServingOptions, ShardedIndex
from repro.spaces import hamming

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
from wl_batch import (
    BLOCK,
    DENSE_BUDGET,
    DENSE_CLUSTERS,
    DENSE_D,
    DENSE_L,
    DENSE_N,
    DENSE_POWER,
    DIGEST_EVERY,
    MIN_TRACED,
    N_BLOCKS,
    SETUP_REQUEST,
    SETUPS,
    SPEED_SAMPLES,
)

SHARDS = 4
WORKERS = 2


def _saved_bytes(manifest: str) -> int:
    """Bytes on disk of a sharded save: the manifest plus every shard's
    array bundle and sidecar."""
    files = [index_paths(manifest)[1]]
    for shard in range(SHARDS):
        files.extend(index_paths(f"{manifest}.shard{shard}"))
    return sum(p.stat().st_size for p in files)


def run(ctx: Context) -> Outcome:
    """Pool-served closed loop, checked against the unsharded index."""
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
        shards=SHARDS,
    )
    built = spec.build(points)
    whole = dataclasses.replace(spec, shards=1).build(points)
    tracer = ctx.tracer

    setups: list[Timing] = []
    pool: Any = None
    path = ""
    for k in range(SETUPS):
        if pool is not None:
            pool.close()
        path = str(ctx.workdir / f"s{k}")
        tracer.request_id = SETUP_REQUEST - k
        ctx.speed.sample(SPEED_SAMPLES)
        start = time.perf_counter()
        with tracer.span("setup"):
            with tracer.span("persistence.save"):
                built.save(path)
            with tracer.span("sharded.load"):
                pool = ShardedIndex.load(path, options=ServingOptions(workers=WORKERS))
                pool.batch_query(queries[0][:1], max_retrieved=DENSE_BUDGET)
        setups.append((start, time.perf_counter() - start))

    transport: dict[str, list[int]] = {"pipe_bytes": [], "shm_bytes": [], "tasks": []}
    recovery = {"retries": 0, "respawns": 0}

    def call(i: int) -> Any:
        return pool.batch_query(queries[i % N_BLOCKS], max_retrieved=DENSE_BUDGET)

    def account(i: int, result: Any) -> None:
        for name, values in transport.items():
            values.append(int(pool.last_transport[name]))
        for name in recovery:
            recovery[name] += int(pool.last_health[name])
        if any(r.stats.degraded for r in result):
            out.fail(1, f"block {i % N_BLOCKS}: served degraded")
        if i % DIGEST_EVERY == 0:
            book.observe(i % N_BLOCKS, result)

    book = DigestBook(candidate_digest, out)
    try:
        for i in range(4):
            call(i)
        if ctx.trace:
            _trace(ctx, out, pool, path, queries, transport, recovery, account)
        else:
            latencies = closed_loop(call, ctx.seconds, account, ctx.speed)
            out.attempted = len(latencies)
            put_closed_loop(out, latencies, BLOCK, setups, ctx.speed)
            out.put("peak_rss_mb", peak_rss_mb(), "MiB")
        for block in range(N_BLOCKS):
            result = call(block)
            expected = whole.batch_query(queries[block], max_retrieved=DENSE_BUDGET)
            if not (book.confirm(block, result) and same_candidates(result, expected)):
                out.fail(1, f"block {block}: sharded result differs from unsharded")
    finally:
        pool.close()
        _stop_resource_tracker()
    out.notes["recovery"] = dict(recovery)
    return out


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that ``multiprocessing`` started
    to track the pool's shared-memory segments, so the run ends with every
    process it started.  Left alone, it exits only after this process."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if callable(stop):
        stop()


def _trace(
    ctx: Context, out: Outcome, pool: Any, path: str, queries: Any,
    transport: dict[str, list[int]], recovery: dict[str, int], account: Any,
) -> None:
    tracer = ctx.tracer
    local = ShardedIndex.load(path)
    pooled: list[float] = []
    inprocess: list[float] = []
    untraced: list[float] = []
    stop = time.perf_counter() + ctx.seconds
    i = 0
    while i < MIN_TRACED or time.perf_counter() < stop:
        block = queries[i % N_BLOCKS]
        tracer.request_id = i
        start = time.perf_counter()
        pool.batch_query(block, max_retrieved=DENSE_BUDGET)
        untraced.append(time.perf_counter() - start)
        with tracer.span("sharded.batch_query"):
            result = pool.batch_query(block, max_retrieved=DENSE_BUDGET)
        pooled.append(tracer.spans[-1].duration)
        account(i, result)
        with tracer.span("sharded.batch_query.inprocess"):
            here = local.batch_query(block, max_retrieved=DENSE_BUDGET)
        inprocess.append(tracer.spans[-1].duration)
        if not same_candidates(result, here):
            out.fail(1, f"block {i % N_BLOCKS}: pool and in-process differ")
        i += 1
    out.attempted = i

    def ms(values: list[float]) -> float:
        return statistics.median(values) * 1e3

    def span_median(name: str) -> float:
        return statistics.median(s.duration for s in tracer.spans if s.name == name)

    out.put("sharded.batch_ms.p50", ms(pooled), "ms")
    out.put("sharded.inprocess_ms.p50", ms(inprocess), "ms")
    for name, values in transport.items():
        out.put(f"sharded.{name}", statistics.fmean(values), "bytes" if "bytes" in name else "count")
    out.put("sharded.retries", float(recovery["retries"]), "count")
    out.put("sharded.respawns", float(recovery["respawns"]), "count")
    out.put("sharded.load_s", span_median("sharded.load"), "s")
    out.put("persistence.save_s", span_median("persistence.save"), "s")
    loads: list[float] = []
    verifies: list[float] = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        ShardedIndex.load(path)
        loads.append(time.perf_counter() - start)
        start = time.perf_counter()
        verify_saved_index(path, verify="eager")
        verifies.append(time.perf_counter() - start)
    out.put("persistence.load_s", statistics.median(loads), "s")
    out.put("persistence.verify_s", statistics.median(verifies), "s")
    out.put("persistence.bytes", float(_saved_bytes(path)), "bytes")
    out.put("trace.batch_ms", ms(pooled), "ms")
    out.put("trace.layer_sum_ms", ms(pooled), "ms")
    out.put("trace.overhead_ms", ms(pooled) - ms(untraced), "ms")
