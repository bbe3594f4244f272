"""Async serving workflow: coalesce, shed, hot-swap — one running server.

The sharded-serving example scales *batched* queries across cores; this
one serves *single-query* requests the way an online system receives
them — concurrently, one point at a time — without giving up the batch
path's vectorisation.  The script walks the full lifecycle:

1. build and **save** a packed index, then start an
   :class:`~repro.serving.AsyncIndexServer` over the saved bundle;
2. fire concurrent single-query requests: the server coalesces them
   into micro-batches (bounded by ``max_batch`` and a ``max_wait_us``
   window), executes each batch as one vectorised ``batch_query``, and
   fans the rows back — responses are bit-identical to querying the
   index directly, and each carries per-request :class:`ServeStats`;
3. overload a tiny server: admission is bounded by ``max_pending``
   outstanding requests, and the excess sheds *fast* with a typed
   :class:`ServerOverloadedError` instead of queueing without bound;
4. **hot-swap** to a freshly written snapshot while requests are in
   flight: old-generation batches drain on the old mmap'd bundle, new
   admissions run on the new one, and nothing is dropped or mixed.

The synchronous :func:`serve_in_thread` handle at the end shows the
same server satisfying the ``Queryable`` protocol for non-async
callers.

Run:  python examples/async_serving.py
"""

import asyncio
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import build_index, save_index
from repro.serving import (
    AsyncIndexServer,
    ServerOverloadedError,
    serve_in_thread,
)
from repro.spaces import hamming

RNG_SEED = 2018
N_POINTS = 20_000
N_REQUESTS = 256
D = 64
L = 12
SPEC = dict(
    kind="raw", family="bit_sampling", power=14, n_tables=L, rng=RNG_SEED + 1
)


def clustered_points(n, rng):
    prototypes = hamming.random_points(60, D, rng=rng)
    rows = prototypes[rng.integers(0, prototypes.shape[0], size=n)]
    return rows ^ (rng.random(size=rows.shape) < 0.01).astype(np.int8)


async def fire(server, queries):
    """One concurrent task per query — what an async request handler
    does; the server turns them into micro-batches."""
    return await asyncio.gather(*(server.query(q) for q in queries))


async def demo(base, swap_base, queries, reference, swap_reference):
    async with AsyncIndexServer(
        str(base), max_batch=64, max_wait_us=2_000
    ) as server:
        # -- coalescing: concurrent singles, batched execution ---------
        start = time.perf_counter()
        responses = await fire(server, queries)
        elapsed = time.perf_counter() - start
        assert [r.indices for r in responses] == [
            r.indices for r in reference
        ], "coalesced responses must match the direct index"
        metrics = server.metrics()
        print(
            f"served {len(responses)} concurrent requests in "
            f"{elapsed * 1e3:.0f} ms ({len(responses) / elapsed:.0f} q/s) "
            f"across {metrics['batches']} micro-batches "
            f"(mean {metrics['mean_batch']:.1f} queries/batch); "
            "responses identical to the direct index"
        )
        sample = responses[0].serve
        print(
            f"per-request stats: coalesce wait "
            f"{sample.coalesce_wait_s * 1e6:.0f} us, execute "
            f"{sample.execute_s * 1e3:.2f} ms, batch of {sample.batch_size} "
            f"on snapshot gen {sample.snapshot}"
        )

        # -- hot-swap under load ---------------------------------------
        # Requests racing a swap may land on either generation — each
        # response records which snapshot served it, and must match that
        # generation's direct answer.  Batches never mix generations.
        oracle = {0: reference, 1: swap_reference}
        in_flight = asyncio.ensure_future(fire(server, queries))
        swap_info = await server.swap(str(swap_base))
        after = await fire(server, queries)
        racing = await in_flight
        for i, r in enumerate(racing):
            assert r.indices == oracle[r.serve.snapshot][i].indices, (
                "response must match the generation that served it"
            )
        assert [r.indices for r in after] == [
            r.indices for r in swap_reference
        ], "post-swap requests must see the new snapshot"
        by_gen = {r.serve.snapshot for r in racing}
        batches = {}
        for r in racing:
            batches.setdefault(r.serve.batch_id, set()).add(r.serve.snapshot)
        assert all(len(gens) == 1 for gens in batches.values()), (
            "a micro-batch must never mix snapshot generations"
        )
        print(
            f"hot-swapped to generation {swap_info['generation']} with "
            f"{len(racing)} requests in flight (served on generations "
            f"{sorted(by_gen)}): zero dropped, zero mixed "
            f"(health ok: {(await server.check_health())['ok']})"
        )

    # -- backpressure: a deliberately tiny server ----------------------
    async with AsyncIndexServer(
        str(base), max_batch=4, max_wait_us=50_000, max_pending=8
    ) as tiny:
        outcomes = await asyncio.gather(
            *(tiny.query(q) for q in queries), return_exceptions=True
        )
        shed = sum(isinstance(o, ServerOverloadedError) for o in outcomes)
        served = len(outcomes) - shed
        print(
            f"overload demo (max_pending=8): {served} served, {shed} shed "
            "with ServerOverloadedError — bounded memory, fast failure"
        )


def main():
    rng = np.random.default_rng(RNG_SEED)
    points = clustered_points(N_POINTS, rng)
    swap_points = clustered_points(N_POINTS, rng)
    queries = clustered_points(N_REQUESTS, rng)

    print(f"building packed index: n={N_POINTS}, d={D}, L={L}")
    index = build_index(points, **SPEC)
    swap_index = build_index(swap_points, **SPEC)
    reference = index.batch_query(queries)
    swap_reference = swap_index.batch_query(queries)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "serve_v1"
        swap_base = Path(tmp) / "serve_v2"
        save_index(index, base)
        save_index(swap_index, swap_base)

        asyncio.run(
            demo(base, swap_base, queries, reference, swap_reference)
        )

        # -- the same server as a synchronous Queryable ----------------
        with serve_in_thread(str(base), max_batch=32) as handle:
            result = handle.query(queries[0])
            batch = handle.batch_query(queries[:16])
            assert result.indices == reference[0].indices
            assert [r.indices for r in batch] == [
                r.indices for r in reference[:16]
            ]
            print(
                "sync handle: query()/batch_query() satisfy Queryable — "
                f"{handle.metrics()['served']} requests served through the "
                "same coalescing tier"
            )


if __name__ == "__main__":
    main()
