"""``serve-open``: single-query requests to an ``AsyncIndexServer`` over
the saved ``batch-dense`` index, with hot swaps between two snapshots
built with different seeds; every response is checked against a direct
query on the generation that served it.

End-to-end metrics come from ``CLIENTS`` concurrent callers, each sending
its next query as soon as the previous one is answered (a closed loop),
with one swap halfway.  The traced run adds the open-loop rate ladder
the per-layer numbers need: independent users send on a schedule whatever
the server does, each step draws its arrival times up front (a Poisson
process conditioned on its request count) and every request is timed from
its *scheduled* send time, which charges a stall to every request queued
behind it.  The generator records how late it ran and the server's
outstanding-request depth as it sends, so a step whose backlog keeps
growing fails rather than showing up only as a high p99.

The ladder is not an end-to-end metric because on a 2-core host its result
does not repeat: near and above capacity the server alternates between
small batches (~500 q/s) and large ones (several thousand q/s), so across
ten seeds the highest passing rate came out 100, 300 or 900 q/s.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
from typing import Any

import numpy as np

from repro.api import (
    IndexSpec,
    index_paths,
    load_index,
    save_index,
    verify_saved_index,
)
from repro.serving import AsyncIndexServer, ServerOverloadedError
from repro.spaces import hamming
from repro.utils.rng import rng_from_state

from common import (
    Context,
    Outcome,
    Timing,
    candidate_digest,
    clustered_hamming,
    peak_rss_mb,
)
from measure import (
    StepRecord,
    judge_step,
    max_passing_index,
    percentile,
    tail_percentile,
)
from traced import TracedPackedBackend
from wl_batch import (
    BLOCK,
    DENSE_CLUSTERS,
    DENSE_D,
    DENSE_L,
    DENSE_N,
    DENSE_POWER,
    SETUP_REQUEST,
    SETUPS,
    SPEED_SAMPLES,
    time_bs1,
)

#: Ladder rates of the traced run, three times apart around the ~500 q/s
#: the server sustains for lone single queries on a 2-core host.
RATES = (100, 300, 900, 2700)
#: Concurrent callers of the closed loop (one full batch).
CLIENTS = 64
#: Requests sent at ``RATES[1]`` before the ladder, unmeasured.
WARMUP_REQUESTS = 200
REFERENCE_RATE = RATES[0]
LIMIT_MS = 100.0
REPLICAS = 2
MAX_BATCH = 64
MAX_WAIT_US = 2_000
MAX_PENDING = 1_024
#: A step whose outstanding depth grows by more than one full batch over
#: its sending window is not keeping up.
BACKLOG_LIMIT = float(MAX_BATCH)
POOL_QUERIES = 1024
#: Each step sends for at least this share of ``--seconds`` and at least
#: ``MIN_REQUESTS`` requests (for a p99).  Above capacity the server
#: alternates between building a backlog and draining it in large
#: batches; a step long enough to see several such cycles fails
#: consistently instead of passing on a lucky one.
STEP_SHARE = 0.125
MIN_REQUESTS = 1000
DRAIN_TIMEOUT_S = 60.0


def _spec(seed: int) -> IndexSpec:
    return IndexSpec(
        kind="raw", family="bit_sampling",
        family_params={"d": DENSE_D, "power": DENSE_POWER},
        n_tables=DENSE_L, backend="packed", seed=seed,
    )


class _Step:
    """Everything one ladder step observed, plus its raw responses."""

    def __init__(self, rate: float, requests: int) -> None:
        self.record = StepRecord(rate, requests / rate, requests)
        self.late_s: list[float] = []
        # (query pick, result digest, ServeStats, issued at, done at).
        # Only the digest of each result is kept: holding thousands of
        # candidate lists would lengthen the interpreter's garbage
        # collections and so the very stalls the ladder measures.
        self.served: list[tuple[int, int, Any, float, float]] = []
        self.swap_span = (0.0, 0.0)
        self.first_due = 0.0
        self.last_done = 0.0


async def _run_step(
    server: AsyncIndexServer, rate: float, requests: int, queries: np.ndarray,
    rng: np.random.Generator, swap_to: str | None,
) -> _Step:
    step = _Step(rate, requests)
    rec = step.record
    offsets = np.sort(rng.uniform(0.0, rec.duration_s, size=requests))
    picks = rng.integers(0, queries.shape[0], size=requests)

    async def one(pick: int, due: float) -> None:
        issued = time.perf_counter()
        try:
            served = await server.query(queries[pick])
        except ServerOverloadedError:
            rec.shed += 1
            return
        except (RuntimeError, ValueError, TimeoutError):
            rec.errors += 1
            return
        done = time.perf_counter()
        rec.latencies_s.append(done - due)
        step.served.append(
            (pick, candidate_digest([served.result]), served.serve, issued, done)
        )
        step.last_done = max(step.last_done, done)

    async def swap(path: str) -> None:
        start = time.perf_counter()
        await server.swap(path)
        step.swap_span = (start, time.perf_counter())

    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task[None]] = []
    swap_task: asyncio.Task[None] | None = None
    start = time.perf_counter() + 0.005
    step.first_due = start
    for i in range(requests):
        due = start + float(offsets[i])
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.perf_counter()
        step.late_s.append(max(0.0, now - due))
        rec.pending.append((now - start, int(server.metrics()["pending"])))
        tasks.append(loop.create_task(one(int(picks[i]), due)))
        if swap_to is not None and swap_task is None and offsets[i] >= rec.duration_s / 2:
            swap_task = loop.create_task(swap(swap_to))
    pending = tasks + ([swap_task] if swap_task is not None else [])
    await asyncio.wait_for(asyncio.gather(*pending), DRAIN_TIMEOUT_S)
    return step


def _snapshot_of(generation: int) -> int:
    """Which build served a generation: the server starts on build 0 and
    every swap alternates between the two saved builds."""
    return generation % 2


def _check_step(step: _Step, refs: list[list[int]], out: Outcome) -> None:
    """Every response against the direct answer of the snapshot that
    served it (snapshot generation from ``ServeStats``)."""
    for pick, digest, serve, _, _ in step.served:
        if digest != refs[_snapshot_of(serve.snapshot)][pick]:
            out.fail(1, f"rate {step.record.rate:g}: response for query {pick} "
                        f"differs from generation {serve.snapshot}")


async def _flood(
    server: AsyncIndexServer, queries: np.ndarray, seconds: float,
    rng: np.random.Generator, swap_to: str,
) -> tuple[list[Timing], list[tuple[int, int, Any]], int]:
    """``CLIENTS`` callers, each sending its next query as soon as the
    previous one is answered, for ``seconds`` and at least
    ``MIN_REQUESTS`` requests, with one hot swap halfway.  Returns each
    request's timing, ``(query pick, result digest, ServeStats)`` of each
    response, and the number of failed requests."""
    timings: list[Timing] = []
    served: list[tuple[int, int, Any]] = []
    failed = 0
    picks = itertools.cycle(rng.integers(0, queries.shape[0], size=1 << 16).tolist())
    stop = time.perf_counter() + seconds

    async def client() -> None:
        nonlocal failed
        while time.perf_counter() < stop or len(timings) < MIN_REQUESTS:
            pick = next(picks)
            start = time.perf_counter()
            try:
                response = await server.query(queries[pick])
            except (ServerOverloadedError, RuntimeError, ValueError, TimeoutError):
                failed += 1
                continue
            timings.append((start, time.perf_counter() - start))
            served.append((pick, candidate_digest([response.result]), response.serve))

    async def swap() -> None:
        await asyncio.sleep(seconds / 2)
        await server.swap(swap_to)

    await asyncio.wait_for(
        asyncio.gather(swap(), *(client() for _ in range(CLIENTS))),
        seconds + DRAIN_TIMEOUT_S,
    )
    return timings, served, failed


async def _measure(ctx: Context, out: Outcome) -> None:
    rng = ctx.rng(0)
    prototypes = hamming.random_points(DENSE_CLUSTERS, DENSE_D, rng=rng)
    points = clustered_hamming(prototypes, DENSE_N, rng)
    queries = clustered_hamming(prototypes, POOL_QUERIES, rng)
    snapshots = [_spec(ctx.derived_seed(1)).build(points),
                 _spec(ctx.derived_seed(2)).build(points)]
    refs: list[list[int]] = []
    for index in snapshots:
        digests: list[int] = []
        for lo in range(0, POOL_QUERIES, BLOCK):
            digests.extend(candidate_digest([r]) for r in
                           index.batch_query(queries[lo : lo + BLOCK]))
        refs.append(digests)

    tracer = ctx.tracer
    paths = [str(ctx.workdir / f"a{k}") for k in range(SETUPS)]
    other = str(ctx.workdir / "b")
    save_index(snapshots[1], other)
    setups: list[Timing] = []
    server: AsyncIndexServer | None = None
    for k, path in enumerate(paths):
        if server is not None:
            await server.close()
        tracer.request_id = SETUP_REQUEST - k
        ctx.speed.sample(SPEED_SAMPLES)
        start = time.perf_counter()
        with tracer.span("setup"):
            with tracer.span("persistence.save"):
                save_index(snapshots[0], path)
            server = AsyncIndexServer(
                path, replicas=REPLICAS, max_batch=MAX_BATCH,
                max_wait_us=MAX_WAIT_US, max_pending=MAX_PENDING,
            )
            with tracer.span("server.start"):
                await server.start()
            await server.query(queries[0])
        setups.append((start, time.perf_counter() - start))
    if server is None:
        raise RuntimeError("no set-up ran")
    live = paths[-1]

    try:
        if ctx.trace:
            await _ladder(ctx, out, server, queries, refs, other, live,
                          snapshots[0], points)
            return
        start = time.perf_counter()
        timings, served, failed = await _flood(
            server, queries, ctx.seconds, ctx.rng(10), other
        )
        elapsed = time.perf_counter() - start
        metrics = server.metrics()
        rss = peak_rss_mb()
    finally:
        await server.close()

    for pick, digest, serve in served:
        if digest != refs[_snapshot_of(serve.snapshot)][pick]:
            out.fail(1, f"response for query {pick} differs from generation "
                        f"{serve.snapshot}")
    out.attempted = len(timings) + failed
    if failed:
        out.fail(failed, f"{failed} requests failed or were shed")
    out.put("setup_s", statistics.median(ctx.speed.scaled(setups)), "s")
    # Latency and throughput are not scaled to reference host speed:
    # serving time here is mostly thread hand-offs and the interpreter's
    # switch interval, which do not follow the calibration kernel (over
    # ten seeds the p50 spread was 0.07 raw and 0.12 scaled).
    latencies = [d for _, d in timings]
    out.put("latency_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    out.put("latency_p99_ms", tail_percentile(latencies, 99) * 1e3, "ms")
    # The clients share the wall clock: throughput is requests completed
    # over the flood's wall time.
    out.put("throughput_qps", len(timings) / elapsed, "q/s")
    out.put("max_rate_qps", len(timings) / elapsed, "q/s")
    out.put("peak_rss_mb", rss, "MiB")
    out.notes["raw"] = {"setup_s": statistics.median(d for _, d in setups)}
    out.notes["latency_samples"] = len(latencies)
    out.notes["mean_batch"] = metrics["mean_batch"]
    out.notes["swaps"] = metrics["swaps"]


async def _ladder(
    ctx: Context, out: Outcome, server: AsyncIndexServer, queries: np.ndarray,
    refs: list[list[int]], other: str, live: str, index: Any,
    points: np.ndarray,
) -> None:
    """The traced run: the open-loop rate ladder, per-layer numbers."""
    sizes = [max(MIN_REQUESTS, int(rate * STEP_SHARE * ctx.seconds)) for rate in RATES]
    warmup = await _run_step(server, RATES[1], WARMUP_REQUESTS, queries,
                             ctx.rng(8), None)
    _check_step(warmup, refs, out)
    steps: list[_Step] = []
    for n, (rate, requests) in enumerate(zip(RATES, sizes)):
        target = other if n % 2 == 0 else live
        step = await _run_step(server, rate, requests, queries, ctx.rng(10 + n), target)
        steps.append(step)
        _check_step(step, refs, out)
        await asyncio.sleep(0.2)
    # The reference rate again, with no spans recorded: the difference is
    # the tracing overhead.
    untraced = await _run_step(server, REFERENCE_RATE, sizes[0], queries,
                               ctx.rng(9), None)
    _check_step(untraced, refs, out)
    metrics = server.metrics()

    verdicts = [judge_step(s.record, LIMIT_MS, BACKLOG_LIMIT) for s in steps]
    out.notes["ladder"] = [
        f"{v.rate:g} q/s: {'pass' if v.passed else 'FAIL'} ({v.reason}; "
        f"p99 {v.p99_ms:.1f} ms, backlog growth {v.backlog_growth:.1f})"
        for v in verdicts
    ]
    out.notes["requests_per_step"] = sizes
    best = max_passing_index(verdicts)
    out.put("server.max_rate_qps", 0.0 if best is None else RATES[best], "q/s")
    out.attempted = sum(s.record.sent for s in steps) + warmup.record.sent
    # Shedding above the highest passing rate is what the ladder measures;
    # below it, and any other error anywhere, is a failure.
    lost = sum(s.record.errors for s in steps) + warmup.record.errors
    lost += sum(s.record.shed for s in steps[: (best or 0) + 1])
    if lost:
        out.fail(lost, f"{lost} ladder requests failed or were shed")
    _put_layers(ctx, out, steps, untraced, metrics, index, points, live)


def _ms(values: list[float], q: float) -> float:
    return percentile(values, q) * 1e3 if values else 0.0


def _put_layers(
    ctx: Context, out: Outcome, steps: list[_Step], untraced: _Step,
    metrics: dict[str, Any], index: Any, points: np.ndarray, live: str,
) -> None:
    tracer = ctx.tracer
    request = 0
    queue: list[float] = []
    coalesce: list[float] = []
    execute: list[float] = []
    slot: list[float] = []
    for step in steps:
        for _, _, s, issued, done in step.served:
            tracer.record("server.query", issued, done, request)
            request += 1
            queue.append(s.queue_wait_s)
            coalesce.append(s.coalesce_wait_s)
            execute.append(s.execute_s)
            # What ServeStats does not show: time after dispatch spent
            # waiting for a replica slot and for the response fan-out.
            slot.append((done - issued) - s.queue_wait_s - s.execute_s)
        swap_start, swap_end = step.swap_span
        tracer.record("server.swap", swap_start, swap_end, request)
    out.put("server.queue_wait_ms.p50", _ms(queue, 50), "ms")
    out.put("server.queue_wait_ms.p99", _ms(queue, 99), "ms")
    out.put("server.coalesce_wait_ms.p50", _ms(coalesce, 50), "ms")
    out.put("server.execute_ms.p50", _ms(execute, 50), "ms")
    out.put("server.execute_ms.p99", _ms(execute, 99), "ms")
    out.put("server.slot_wait_ms.p50", _ms(slot, 50), "ms")
    out.put("server.slot_wait_ms.p99", _ms(slot, 99), "ms")
    out.put("server.batch_size_mean", float(metrics["mean_batch"]), "count")
    out.put("server.batches", float(metrics["batches"]), "count")
    out.put("server.shed", float(metrics["shed"]), "count")
    out.put("server.failed", float(metrics["failed"]), "count")
    out.put("server.pending_max",
            float(max(d for s in steps for _, d in s.record.pending)), "count")
    out.put("server.swap_s",
            statistics.median(s.swap_span[1] - s.swap_span[0] for s in steps), "s")
    late = [x for s in steps for x in s.late_s]
    out.put("server.generator_late_ms.p99", _ms(late, 99), "ms")
    for step in steps:
        out.put(f"server.p99_ms.r{step.record.rate:g}",
                _ms(step.record.latencies_s, 99), "ms")

    ref = [d - i for _, _, _, i, d in steps[0].served]
    plain = [d - i for _, _, _, i, d in untraced.served]
    out.put("trace.batch_ms", _ms(ref, 50), "ms")
    out.put("trace.layer_sum_ms", _ms(
        [q + e + w for q, e, w in zip(queue, execute, slot)][: len(ref)], 50), "ms")
    out.put("trace.overhead_ms", _ms(ref, 50) - _ms(plain, 50), "ms")

    # Persistence layer, each call timed on its own.
    tracer.request_id = SETUP_REQUEST - SETUPS
    loads: list[float] = []
    verifies: list[float] = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        with tracer.span("persistence.load"):
            load_index(live)
        loads.append(time.perf_counter() - start)
        start = time.perf_counter()
        with tracer.span("persistence.verify"):
            verify_saved_index(live, verify="eager")
        verifies.append(time.perf_counter() - start)
    saves = [s.duration for s in tracer.spans if s.name == "persistence.save"]
    out.put("persistence.save_s", statistics.median(saves), "s")
    out.put("persistence.load_s", statistics.median(loads), "s")
    out.put("persistence.verify_s", statistics.median(verifies), "s")
    out.put("persistence.bytes",
            float(sum(p.stat().st_size for p in index_paths(live))), "bytes")

    # The 1-row block cost a lone request pays in the backend.
    backend = TracedPackedBackend(tracer)
    pairs = index.family.sample_pairs(index.n_tables, rng_from_state(index.pair_rng_state))
    backend.build([p.hash_data(points) for p in pairs])
    comps = [p.hash_query(points[:BLOCK]) for p in pairs]
    out.put("backends.probe_ms.bs1", time_bs1(ctx, backend, comps), "ms")


def run(ctx: Context) -> Outcome:
    """Concurrent clients (traced: the rate ladder and per-layer numbers)."""
    out = Outcome()
    asyncio.run(_measure(ctx, out))
    return out
