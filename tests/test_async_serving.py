"""Chaos-style suite for the async micro-batching serving tier.

Covers coalescing edges (batch caps, zero windows, overflow), the
result-exactness invariant (every coalesced response bit-identical to a
direct ``batch_query`` of the same queries, including budget clipping
and ``stats.degraded`` propagation), bounded-queue overload shedding,
health-based replica routing under injected pool crashes, and
zero-downtime hot swaps under concurrent load with zero dropped or
wrong-snapshot-mixed responses.

No ``pytest-asyncio`` in the pinned environment: each test drives its
own event loop via ``asyncio.run``.
"""

import asyncio
import os
import shutil

import numpy as np
import pytest

from repro.api import IndexSpec, build_index, load_index, save_index
from repro.index.persistence import IndexIntegrityError
from repro.serving import (
    AsyncIndexServer,
    ServerOverloadedError,
    ServingOptions,
    ShardedIndex,
    serve_in_thread,
    shard_bounds,
)
from repro.serving import faults
from repro.spaces import hamming, sphere

D = 24
N_TABLES = 8
N_POINTS = 257


def _spec(shards=1, seed=11):
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 4},
        n_tables=N_TABLES,
        seed=seed,
        shards=shards,
    )


def _clustered_points(n, rng):
    prototypes = hamming.random_points(10, D, rng=rng)
    rows = prototypes[rng.integers(0, prototypes.shape[0], size=n)]
    return rows ^ (rng.random(size=rows.shape) < 0.02).astype(np.int8)


def _assert_exact(served, reference):
    assert served.indices == reference.indices
    assert served.stats == reference.stats


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    points = _clustered_points(N_POINTS, rng)
    queries = np.concatenate([points[:8], _clustered_points(40, rng)])
    return points, queries


@pytest.fixture(scope="module")
def flat(data):
    points, _ = data
    return _spec().build(points)


@pytest.fixture(scope="module")
def saved_single(data, tmp_path_factory):
    points, _ = data
    path = tmp_path_factory.mktemp("async-single") / "idx"
    save_index(_spec().build(points), path)
    return path


@pytest.fixture(scope="module")
def saved_sharded(data, tmp_path_factory):
    """Pristine 2-shard save; damaging tests work on copies."""
    points, _ = data
    root = tmp_path_factory.mktemp("async-sharded")
    ShardedIndex(points, _spec(shards=2)).save(root / "srv")
    return root


@pytest.fixture
def served_dir(saved_sharded, tmp_path):
    for name in os.listdir(saved_sharded):
        shutil.copy2(saved_sharded / name, tmp_path / name)
    return tmp_path


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    directory = tmp_path / "fault-tokens"
    monkeypatch.setenv(faults.ENV_FAULT_DIR, str(directory))
    yield directory
    faults.disarm_all(directory)


# ---------------------------------------------------------------------------
# coalescing mechanics and exactness
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_concurrent_queries_coalesce_and_stay_exact(
        self, saved_single, flat, data
    ):
        _, queries = data
        reference = flat.batch_query(queries)

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=16, max_wait_us=20_000
            ) as server:
                results = await asyncio.gather(
                    *(server.query(q) for q in queries)
                )
                return results, server.metrics()

        results, metrics = asyncio.run(scenario())
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)
        assert metrics["served"] == len(queries)
        assert metrics["failed"] == 0
        # Concurrent submission must actually coalesce: fewer batches
        # than requests, and some batch saw more than one member.
        assert metrics["batches"] < len(queries)
        assert metrics["max_batch_size"] > 1
        sizes = {r.serve.batch_size for r in results}
        assert max(sizes) <= 16

    def test_max_batch_one_serves_singletons(self, saved_single, flat, data):
        _, queries = data
        reference = flat.batch_query(queries[:10])

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=1, max_wait_us=20_000
            ) as server:
                results = await asyncio.gather(
                    *(server.query(q) for q in queries[:10])
                )
                return results, server.metrics()

        results, metrics = asyncio.run(scenario())
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)
            assert served.serve.batch_size == 1
        assert metrics["batches"] == 10

    def test_zero_wait_window_dispatches_immediately(
        self, saved_single, flat, data
    ):
        _, queries = data
        reference = flat.batch_query(queries[:8])

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=64, max_wait_us=0
            ) as server:
                results = [await server.query(q) for q in queries[:8]]
                return results

        results = asyncio.run(scenario())
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)

    def test_overflow_splits_into_multiple_exact_batches(
        self, saved_single, flat, data
    ):
        _, queries = data
        reference = flat.batch_query(queries)

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=4, max_wait_us=20_000
            ) as server:
                results = await asyncio.gather(
                    *(server.query(q) for q in queries)
                )
                return results, server.metrics()

        results, metrics = asyncio.run(scenario())
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)
            assert served.serve.batch_size <= 4
        assert metrics["batches"] >= len(queries) / 4

    def test_mixed_budgets_grouped_and_exact(self, saved_single, flat, data):
        _, queries = data
        budgets = [None, 0, 1, 5, 8 * N_TABLES]
        reference = {
            budget: flat.batch_query(queries, max_retrieved=budget)
            for budget in budgets
        }

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=64, max_wait_us=20_000
            ) as server:
                jobs = [
                    server.query(q, max_retrieved=budgets[i % len(budgets)])
                    for i, q in enumerate(queries)
                ]
                return await asyncio.gather(*jobs)

        results = asyncio.run(scenario())
        for i, served in enumerate(results):
            budget = budgets[i % len(budgets)]
            _assert_exact(served, reference[budget][i])
            # Budget groups share one coalesced batch but execute as
            # separate exact sub-batches.
            assert served.serve.group_size <= served.serve.batch_size

    def test_serve_stats_are_sane(self, saved_single, data):
        _, queries = data

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=8, max_wait_us=5_000
            ) as server:
                return await asyncio.gather(
                    *(server.query(q) for q in queries[:8])
                )

        for served in asyncio.run(scenario()):
            stats = served.serve
            assert stats.queue_wait_s >= 0.0
            assert stats.coalesce_wait_s >= 0.0
            assert stats.execute_s >= 0.0
            assert 1 <= stats.group_size <= stats.batch_size <= 8
            assert stats.snapshot == 0
            assert stats.replica == 0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_overload_sheds_with_typed_error(self, saved_single, data):
        _, queries = data
        total = 60

        async def scenario():
            # A long coalescing window with a huge batch cap keeps the
            # queue occupied, so a burst larger than max_pending must
            # shed the excess immediately.
            async with AsyncIndexServer(
                str(saved_single),
                max_batch=64,
                max_wait_us=200_000,
                max_pending=4,
            ) as server:
                jobs = [
                    server.query(queries[i % queries.shape[0]])
                    for i in range(total)
                ]
                results = await asyncio.gather(*jobs, return_exceptions=True)
                return results, server.metrics()

        results, metrics = asyncio.run(scenario())
        served = [r for r in results if not isinstance(r, BaseException)]
        shed = [r for r in results if isinstance(r, ServerOverloadedError)]
        unexpected = [
            r
            for r in results
            if isinstance(r, BaseException)
            and not isinstance(r, ServerOverloadedError)
        ]
        assert unexpected == []
        assert len(served) + len(shed) == total
        assert len(shed) > 0
        assert metrics["served"] == len(served)
        assert metrics["shed"] == len(shed)
        assert metrics["admitted"] == len(served)
        error = shed[0]
        assert error.max_pending == 4
        assert "overloaded" in str(error)

    def test_rejects_bad_queries_at_admission(self, saved_single, data):
        _, queries = data

        async def scenario():
            async with AsyncIndexServer(str(saved_single)) as server:
                with pytest.raises(ValueError, match="dimension"):
                    await server.query(np.zeros(D + 3, dtype=np.int8))
                with pytest.raises(ValueError, match="single point"):
                    await server.query(
                        np.zeros((2, D), dtype=np.int8)
                    )
                with pytest.raises(ValueError, match="max_retrieved"):
                    await server.query(queries[0], max_retrieved=-1)
                # ... and a good query still works afterwards.
                return await server.query(queries[0])

        served = asyncio.run(scenario())
        assert served.stats.retrieved >= 0

    @pytest.mark.parametrize(
        "budget, error",
        [(2.5, TypeError), ("8", TypeError), (-1, ValueError)],
        ids=["float", "str", "negative"],
    )
    def test_budget_check_matches_direct_index(
        self, saved_single, data, flat, budget, error
    ):
        """Admission applies the index's own budget check: what the
        direct call rejects is rejected at admission with the same error,
        and an integer-like budget is served exactly as its int."""
        _, queries = data
        with pytest.raises(error, match="max_retrieved"):
            flat.query(queries[0], max_retrieved=budget)

        async def scenario():
            async with AsyncIndexServer(str(saved_single)) as server:
                with pytest.raises(error, match="max_retrieved"):
                    await server.query(queries[0], max_retrieved=budget)
                return await server.query(
                    queries[0], max_retrieved=np.int64(5)
                )

        served = asyncio.run(scenario())
        _assert_exact(served.result, flat.query(queries[0], max_retrieved=5))

    def test_non_finite_query_fails_alone_in_its_window(
        self, saved_single, flat, data
    ):
        _, queries = data
        good = queries[:15]
        reference = flat.batch_query(good)
        bad = np.full(D, np.nan)

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=32, max_wait_us=20_000
            ) as server:
                requests = [server.query(q) for q in good[:7]]
                requests.append(server.query(bad))
                requests += [server.query(q) for q in good[7:]]
                results = await asyncio.gather(
                    *requests, return_exceptions=True
                )
                return results, server.metrics()

        results, metrics = asyncio.run(scenario())
        error = results.pop(7)
        assert isinstance(error, ValueError)
        assert "finite" in str(error)
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)
        assert metrics["served"] == len(good)
        assert metrics["failed"] == 0
        assert metrics["max_batch_size"] > 1

    def test_wrong_dimension_fails_alone_on_a_hyperplane_snapshot(
        self, tmp_path
    ):
        """An application index exposes ``dim`` like a raw one, so a
        request of the wrong length is rejected at admission instead of
        failing the batch it would have been stacked into."""
        points = sphere.random_points(200, 8, rng=3)
        good = sphere.random_points(2, 8, rng=4)
        index = build_index(
            points, kind="hyperplane", alpha=0.3, t=1.4, n_tables=10, rng=5
        )
        save_index(index, tmp_path / "hyp")
        reference = index.batch_query(good)

        async def scenario():
            async with AsyncIndexServer(
                str(tmp_path / "hyp"), max_batch=8, max_wait_us=20_000
            ) as server:
                return await asyncio.gather(
                    server.query(good[0]),
                    server.query(np.zeros(5)),
                    server.query(good[1]),
                    return_exceptions=True,
                )

        first, error, second = asyncio.run(scenario())
        assert isinstance(error, ValueError)
        assert "dimensionality 5" in str(error)
        for served, ref in zip((first, second), reference):
            assert served.result.index == ref.index
            assert served.result.stats == ref.stats

    @pytest.mark.parametrize("dtype", [object, str, np.complex128])
    def test_non_numeric_query_fails_alone_in_its_window(
        self, saved_single, flat, data, dtype
    ):
        _, queries = data
        good = queries[:15]
        reference = flat.batch_query(good)
        bad = queries[15].astype(dtype)

        async def scenario():
            async with AsyncIndexServer(
                str(saved_single), max_batch=32, max_wait_us=20_000
            ) as server:
                requests = [server.query(q) for q in good[:7]]
                requests.append(server.query(bad))
                requests += [server.query(q) for q in good[7:]]
                results = await asyncio.gather(
                    *requests, return_exceptions=True
                )
                return results, server.metrics()

        results, metrics = asyncio.run(scenario())
        error = results.pop(7)
        assert isinstance(error, TypeError)
        assert "dtype" in str(error)
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)
        assert metrics["served"] == len(good)
        assert metrics["failed"] == 0
        assert metrics["max_batch_size"] > 1

    def test_handle_rejects_non_finite_query(self, saved_single, flat, data):
        _, queries = data
        reference = flat.batch_query(queries[:4])
        with serve_in_thread(
            str(saved_single), max_batch=16, max_wait_us=10_000
        ) as handle:
            with pytest.raises(ValueError, match="finite"):
                handle.query(np.full(D, np.inf))
            results = handle.batch_query(queries[:4])
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)

    def test_query_requires_started_server(self, saved_single, data):
        _, queries = data

        async def scenario():
            server = AsyncIndexServer(str(saved_single))
            with pytest.raises(RuntimeError, match="not started"):
                await server.query(queries[0])
            await server.start()
            await server.close()
            with pytest.raises(RuntimeError, match="closed"):
                await server.query(queries[0])

        asyncio.run(scenario())

    def test_close_drains_in_flight_requests(self, saved_single, flat, data):
        _, queries = data
        reference = flat.batch_query(queries[:12])

        async def scenario():
            server = await AsyncIndexServer(
                str(saved_single), max_batch=4, max_wait_us=50_000
            ).start()
            jobs = [
                asyncio.ensure_future(server.query(q)) for q in queries[:12]
            ]
            await asyncio.sleep(0)  # let admissions land
            await server.close()
            return await asyncio.gather(*jobs)

        results = asyncio.run(scenario())
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)


# ---------------------------------------------------------------------------
# degraded results through the server
# ---------------------------------------------------------------------------


class TestDegradedPropagation:
    def test_degraded_stats_propagate_through_server(
        self, data, served_dir
    ):
        points, queries = data
        split = int(shard_bounds(N_POINTS, 2)[1])
        # The exact oracle: an unsharded index over shard 0's points.
        survivor = _spec().build(points[:split])

        async def scenario():
            options = ServingOptions(
                workers=1, on_shard_failure="degrade", verify="lazy"
            )
            async with AsyncIndexServer(
                str(served_dir / "srv"),
                max_batch=16,
                max_wait_us=10_000,
                options=options,
            ) as server:
                healthy = await server.query(queries[0])  # warm the pool
                faults.delete_bundle(served_dir / "srv.shard1")
                degraded = await asyncio.gather(
                    *(server.query(q) for q in queries[:8])
                )
                return healthy, degraded

        healthy, results = asyncio.run(scenario())
        assert healthy.stats.degraded is False
        reference = survivor.batch_query(queries[:8])
        for served, ref in zip(results, reference):
            assert served.indices == ref.indices
            assert served.stats.degraded is True
            assert served.stats.retrieved == ref.stats.retrieved
            assert (
                served.stats.unique_candidates == ref.stats.unique_candidates
            )
            assert served.stats.truncated == ref.stats.truncated


# ---------------------------------------------------------------------------
# health routing
# ---------------------------------------------------------------------------


class TestHealthRouting:
    def test_pool_crash_marks_replica_unhealthy_and_reroutes(
        self, data, served_dir, flat, fault_dir
    ):
        _, queries = data
        reference = flat.batch_query(queries[:6])

        async def scenario():
            options = ServingOptions(workers=1, max_retries=0)
            async with AsyncIndexServer(
                str(served_dir / "srv"),
                replicas=2,
                max_batch=8,
                max_wait_us=5_000,
                options=options,
            ) as server:
                # Warm both replicas' pools so the kill token lands in a
                # live worker, then arm exactly one worker kill: the
                # first batch after arming crashes its replica's pool,
                # retries are exhausted (max_retries=0), the server
                # marks that replica unhealthy and reroutes the batch.
                await asyncio.gather(*(server.query(q) for q in queries[:2]))
                faults.arm(fault_dir, "pool_worker", "kill", count=1)
                results = await asyncio.gather(
                    *(server.query(q) for q in queries[:6])
                )
                metrics = server.metrics()
                health = await server.check_health()
                return results, metrics, health

        results, metrics, health = asyncio.run(scenario())
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)
        assert metrics["failed"] == 0
        assert metrics["rerouted"] >= 1
        # check_health re-probes: the crashed pool has respawned and the
        # shard files are intact, so the replica returns to rotation.
        assert health["ok"] is True
        assert health["unhealthy"] == []

    def test_check_health_reports_unhealthy_replicas(
        self, data, served_dir
    ):
        async def scenario():
            options = ServingOptions(workers=1)
            async with AsyncIndexServer(
                str(served_dir / "srv"), options=options
            ) as server:
                before = await server.check_health()
                faults.delete_bundle(served_dir / "srv.shard0")
                after = await server.check_health()
                return before, after

        before, after = asyncio.run(scenario())
        assert before["ok"] is True
        assert after["ok"] is False
        assert after["unhealthy"] == [0]
        assert after["replicas"][0]["ok"] is False


# ---------------------------------------------------------------------------
# hot swap
# ---------------------------------------------------------------------------


class TestHotSwap:
    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        points_a = _clustered_points(N_POINTS, rng)
        points_b = _clustered_points(N_POINTS, rng)
        queries = np.concatenate(
            [points_a[:6], points_b[:6], _clustered_points(28, rng)]
        )
        root = tmp_path_factory.mktemp("swap")
        index_a = _spec(seed=21).build(points_a)
        index_b = _spec(seed=22).build(points_b)
        save_index(index_a, root / "a")
        save_index(index_b, root / "b")
        return root, index_a, index_b, queries

    def test_hot_swap_under_load_never_drops_or_mixes(self, snapshots):
        root, index_a, index_b, queries = snapshots
        oracle = {
            0: index_a.batch_query(queries),
            1: index_b.batch_query(queries),
        }
        waves = 12

        async def scenario():
            async with AsyncIndexServer(
                str(root / "a"),
                replicas=2,
                max_batch=16,
                max_wait_us=2_000,
            ) as server:
                # Pre-swap traffic must be generation 0.
                pre = await asyncio.gather(
                    *(server.query(q) for q in queries)
                )
                # Continuous load with the swap racing mid-stream.
                jobs = []

                async def wave(i):
                    await asyncio.sleep(0.002 * i)
                    return await asyncio.gather(
                        *(server.query(q) for q in queries)
                    )

                jobs = [asyncio.ensure_future(wave(i)) for i in range(waves)]
                await asyncio.sleep(0.010)
                swap_info = await server.swap(str(root / "b"))
                streamed = await asyncio.gather(*jobs)
                # Post-swap traffic must be generation 1.
                post = await asyncio.gather(
                    *(server.query(q) for q in queries)
                )
                return pre, streamed, post, swap_info, server.metrics()

        pre, streamed, post, swap_info, metrics = asyncio.run(scenario())
        assert swap_info["generation"] == 1
        for i, served in enumerate(pre):
            assert served.serve.snapshot == 0
            _assert_exact(served, oracle[0][i])
        for served in post:
            assert served.serve.snapshot == 1
        for i, served in enumerate(post):
            _assert_exact(served, oracle[1][i])
        # The racing waves: zero drops, and every response matches the
        # oracle of the snapshot generation that served it — never a mix.
        seen_generations = set()
        for results in streamed:
            assert len(results) == queries.shape[0]
            for i, served in enumerate(results):
                generation = served.serve.snapshot
                seen_generations.add(generation)
                _assert_exact(served, oracle[generation][i])
        assert metrics["failed"] == 0
        assert metrics["swaps"] == 1
        assert metrics["served"] == (waves + 2) * queries.shape[0]

    def test_batches_never_mix_generations(self, snapshots):
        root, index_a, index_b, queries = snapshots

        async def scenario():
            async with AsyncIndexServer(
                str(root / "a"), max_batch=64, max_wait_us=5_000
            ) as server:
                jobs = [
                    asyncio.ensure_future(server.query(q)) for q in queries
                ]
                await server.swap(str(root / "b"))
                return await asyncio.gather(*jobs)

        results = asyncio.run(scenario())
        # Requests sharing a coalesced batch must report one generation:
        # a batch resolves its snapshot exactly once, at dispatch.
        by_batch = {}
        for served in results:
            by_batch.setdefault(served.serve.batch_id, set()).add(
                served.serve.snapshot
            )
        for batch_id, generations in by_batch.items():
            assert len(generations) == 1, (batch_id, generations)

    def test_failed_swap_keeps_old_snapshot_serving(
        self, snapshots, tmp_path
    ):
        root, index_a, _, queries = snapshots
        broken = tmp_path / "broken"
        for suffix in (".npz", ".json"):
            shutil.copy2(
                str(root / "b") + suffix, str(broken) + suffix
            )
        faults.truncate_bundle(broken)
        reference = index_a.batch_query(queries[:4])

        async def scenario():
            async with AsyncIndexServer(str(root / "a")) as server:
                with pytest.raises(IndexIntegrityError):
                    await server.swap(str(broken))
                results = await asyncio.gather(
                    *(server.query(q) for q in queries[:4])
                )
                return results, server.metrics()

        results, metrics = asyncio.run(scenario())
        for served, ref in zip(results, reference):
            assert served.serve.snapshot == 0
            _assert_exact(served, ref)
        assert metrics["swaps"] == 0


# ---------------------------------------------------------------------------
# synchronous facade
# ---------------------------------------------------------------------------


class TestServerHandle:
    def test_handle_batch_query_coalesces_and_matches(
        self, saved_single, flat, data
    ):
        _, queries = data
        reference = flat.batch_query(queries)
        with serve_in_thread(
            str(saved_single), max_batch=16, max_wait_us=10_000
        ) as handle:
            results = handle.batch_query(queries)
            metrics = handle.metrics()
        for served, ref in zip(results, reference):
            _assert_exact(served, ref)
        assert metrics["mean_batch"] > 1.0

    def test_handle_swap_and_health(self, saved_single, data):
        _, queries = data
        with serve_in_thread(str(saved_single)) as handle:
            first = handle.query(queries[0])
            assert first.serve.snapshot == 0
            health = handle.check_health()
            assert health["ok"] is True
            info = handle.swap(str(saved_single))
            assert info["generation"] == 1
            assert handle.query(queries[0]).serve.snapshot == 1

    def test_handle_close_is_idempotent(self, saved_single):
        handle = serve_in_thread(str(saved_single))
        handle.close()
        handle.close()
