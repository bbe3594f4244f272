"""One loaded handle per snapshot generation, shared by concurrent batches.

:class:`~repro.serving.AsyncIndexServer` loads each generation once and
runs up to ``replicas`` batches on that handle at the same time.  This
suite holds that design to its three promises:

* **Exact under concurrency.**  K threads calling ``batch_query`` on one
  fresh :func:`~repro.api.load_index` handle get exactly the answers and
  stats of a serial handle, for every index kind (raw on both backends,
  a 4-shard raw index across budgets, annulus with its filters' first
  projection chunk drawn under the race, hyperplane, range reporting).
* **Bounded and single-loaded.**  With ``replicas=R`` exactly R batches
  run at once, and ``load_index`` runs once at start and once per swap.
* **Leak-free swaps.**  Twenty hot swaps under in-flight traffic answer
  every request from its own generation and leave no thread or file
  descriptor behind after ``close()``.

No ``pytest-asyncio`` in the pinned environment: each test drives its
own event loop via ``asyncio.run``.
"""

import asyncio
import gc
import os
import sys
import threading
import time

import numpy as np
import pytest

from _load_spy import spy_on_loads
from repro.api import IndexSpec, build_index, load_index, save_index
from repro.data.synthetic import planted_euclidean_range
from repro.serving import AsyncIndexServer, ShardedIndex
from repro.spaces import hamming, sphere

D = 24
THREADS = 4
BLOCK = 16


def _raw_spec(backend="packed", shards=1, seed=11):
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 4},
        n_tables=8,
        backend=backend,
        seed=seed,
        shards=shards,
    )


def _hamming(n, seed):
    return hamming.random_points(n, D, rng=seed)


def _key(results):
    """Exact comparison key: ``repr`` spells out every index, stat and
    float (``nan`` included, which ``==`` would reject)."""
    return [repr(result) for result in results]


def _blocks(queries):
    return [
        queries[start:start + BLOCK]
        for start in range(0, queries.shape[0], BLOCK)
    ]


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """(path, query blocks, budgets) per index kind, saved once."""
    root = tmp_path_factory.mktemp("concurrency")
    h_points, h_queries = _hamming(400, 1), _hamming(64, 2)
    s_points = sphere.random_points(300, 8, rng=3)
    s_queries = np.concatenate(
        [s_points[:32], sphere.random_points(32, 8, rng=4)]
    )
    inst = planted_euclidean_range(300, 8, 4.0, n_near=12, rng=5)
    r_queries = np.concatenate(
        [np.atleast_2d(inst.query), inst.points[:63]]
    )
    unbudgeted = [None]
    built = {
        "raw_dict": (
            _raw_spec(backend="dict").build(h_points), h_queries,
            [None, 0, 1, 200],
        ),
        "raw_packed": (
            _raw_spec().build(h_points), h_queries, [None, 0, 1, 200],
        ),
        "raw_4_shards": (
            ShardedIndex(h_points, _raw_spec(shards=4)), h_queries,
            [None, 0, 1, 200],
        ),
        "annulus": (
            build_index(
                s_points, kind="annulus", family="annulus_sphere",
                t=1.5, interval=(0.2, 0.6), n_tables=8, rng=6,
            ),
            s_queries, unbudgeted,
        ),
        "hyperplane": (
            build_index(
                s_points, kind="hyperplane", alpha=0.3, t=1.4,
                n_tables=8, rng=7,
            ),
            s_queries, unbudgeted,
        ),
        "range_reporting": (
            build_index(
                inst.points, kind="range_reporting",
                family="step_euclidean", r_flat=4.0, level=0.12,
                n_components=3, r_report=4.0,
                distance="euclidean_distance", n_tables=8, rng=8,
            ),
            r_queries, unbudgeted,
        ),
    }
    out = {}
    for name, (index, queries, budgets) in built.items():
        path = root / name
        if isinstance(index, ShardedIndex):
            index.save(path)
        else:
            save_index(index, path)
        out[name] = (path, _blocks(queries), budgets)
    return out


def _answer(handle, block, budget):
    """One keyed ``batch_query``; the application kinds take no budget."""
    if budget is None:
        return _key(handle.batch_query(block))
    return _key(handle.batch_query(block, max_retrieved=budget))


class TestSharedHandleParity:
    @pytest.mark.parametrize(
        "kind",
        ["raw_dict", "raw_packed", "raw_4_shards", "annulus", "hyperplane",
         "range_reporting"],
    )
    def test_threads_on_one_handle_match_a_serial_handle(
        self, bundles, kind
    ):
        path, blocks, budgets = bundles[kind]
        jobs = [(budget, j) for budget in budgets for j in range(len(blocks))]
        serial_handle = load_index(path)
        serial = {
            (budget, j): _answer(serial_handle, blocks[j], budget)
            for budget, j in jobs
        }
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                # A fresh handle per trial, so lazily drawn state (the
                # annulus filters' first projection chunk) is first used
                # under the race.
                shared = load_index(path)
                start = threading.Barrier(THREADS, timeout=30)
                outputs = [None] * THREADS
                errors = []

                def worker(i):
                    try:
                        start.wait()
                        # Each thread starts at its own job, so different
                        # blocks and budgets overlap in time.
                        mine = jobs[i:] + jobs[:i]
                        outputs[i] = {
                            (budget, j): _answer(shared, blocks[j], budget)
                            for budget, j in mine
                        }
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert errors == []
                for output in outputs:
                    assert output == serial
        finally:
            sys.setswitchinterval(previous)


# ---------------------------------------------------------------------------
# the server: R concurrent batches on one handle per generation
# ---------------------------------------------------------------------------


class TestServerConcurrency:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_peak_concurrent_batches_is_exactly_replicas(
        self, bundles, monkeypatch, replicas
    ):
        path, blocks, _ = bundles["raw_packed"]
        queries = np.concatenate(blocks)[: 4 * replicas * 2]
        reference = load_index(path).batch_query(queries)
        loads = spy_on_loads(monkeypatch)
        lock = threading.Lock()
        state = {"active": 0, "peak": 0, "calls": 0}
        # Every batch waits until R batches are inside batch_query, so
        # passing the barrier proves R run at once; the counter proves
        # no more than R ever do.
        together = threading.Barrier(replicas, timeout=30)

        def instrument(index):
            real = index.batch_query

            def tracked(*args, **kwargs):
                with lock:
                    state["active"] += 1
                    state["calls"] += 1
                    state["peak"] = max(state["peak"], state["active"])
                try:
                    together.wait()
                    time.sleep(0.005)
                    return real(*args, **kwargs)
                finally:
                    with lock:
                        state["active"] -= 1

            index.batch_query = tracked

        async def scenario():
            async with AsyncIndexServer(
                str(path), replicas=replicas, max_batch=1, max_wait_us=0
            ) as server:
                instrument(loads[0][1])
                return await asyncio.gather(
                    *(server.query(q) for q in queries)
                )

        results = asyncio.run(scenario())
        assert state["calls"] == queries.shape[0]
        assert state["peak"] == replicas
        assert len(loads) == 1
        assert _key(r.result for r in results) == _key(reference)

    def test_one_load_at_start_and_one_per_swap(
        self, bundles, monkeypatch
    ):
        path, blocks, _ = bundles["raw_4_shards"]
        other, _, _ = bundles["raw_packed"]
        loads = spy_on_loads(monkeypatch)

        async def scenario():
            async with AsyncIndexServer(str(path), replicas=3) as server:
                counts = [len(loads)]
                await asyncio.gather(
                    *(server.query(q) for q in blocks[0])
                )
                for target in (other, path, other):
                    await server.swap(str(target))
                    counts.append(len(loads))
                return counts

        assert asyncio.run(scenario()) == [1, 2, 3, 4]
        assert [p for p, _ in loads] == [
            str(path), str(other), str(path), str(other)
        ]


# ---------------------------------------------------------------------------
# swap soak
# ---------------------------------------------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(scope="module")
def swap_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("soak")
    points_a, points_b = _hamming(300, 21), _hamming(300, 22)
    queries = np.concatenate([points_a[:8], points_b[:8], _hamming(16, 23)])
    index_a = _raw_spec(seed=31).build(points_a)
    index_b = _raw_spec(seed=32).build(points_b)
    save_index(index_a, root / "a")
    save_index(index_b, root / "b")
    oracle = [_key(index_a.batch_query(queries)),
              _key(index_b.batch_query(queries))]
    return [root / "a", root / "b"], queries, oracle


def _soak(paths, queries, swaps):
    """Serve ``swaps`` alternating hot swaps under continuous traffic;
    return every (query row, response) and the final metrics."""
    answered = []

    async def scenario():
        async with AsyncIndexServer(
            str(paths[0]), replicas=2, max_batch=8, max_wait_us=500
        ) as server:
            stop = asyncio.Event()

            async def traffic(offset):
                step = offset
                while not stop.is_set():
                    rows = [(step + k) % queries.shape[0] for k in range(6)]
                    served = await asyncio.gather(
                        *(server.query(queries[row]) for row in rows)
                    )
                    answered.extend(zip(rows, served))
                    step += 6

            streams = [
                asyncio.ensure_future(traffic(7 * i)) for i in range(3)
            ]
            for cycle in range(swaps):
                await asyncio.sleep(0.002)
                info = await server.swap(str(paths[(cycle + 1) % 2]))
                assert info["generation"] == cycle + 1
            await asyncio.sleep(0.002)
            stop.set()
            await asyncio.gather(*streams)
            return server.metrics()

    return answered, asyncio.run(scenario())


class TestSwapSoak:
    def test_twenty_swaps_answer_by_generation_and_leak_nothing(
        self, swap_pair
    ):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd to count open descriptors")
        paths, queries, oracle = swap_pair
        _soak(paths, queries, 2)  # warm up lazy imports and caches
        gc.collect()
        threads, fds = threading.active_count(), _open_fds()

        answered, metrics = _soak(paths, queries, 20)

        gc.collect()
        assert threading.active_count() == threads
        assert _open_fds() == fds
        assert metrics["swaps"] == 20
        assert metrics["failed"] == 0
        assert metrics["generation"] == 20
        generations = set()
        for row, served in answered:
            generation = served.serve.snapshot
            generations.add(generation)
            assert repr(served.result) == oracle[generation % 2][row]
        assert metrics["served"] == len(answered)
        assert len(generations) > 2
