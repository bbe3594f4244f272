"""Example edges of the async micro-batching serving tier.

Covers coalescing edges (batch caps, zero windows, overflow, window
expiry), the result-exactness invariant (every coalesced response
bit-identical to a direct ``batch_query`` of the same queries, including
budget clipping), overload shedding at ``max_pending``, fail-fast health
under injected failures of the generation's one loaded handle, health
probes at each ``verify`` level, and hot swaps under concurrent load with
zero dropped or wrong-snapshot-mixed responses.  The generated state
machine in ``tests/test_serving_lifecycle.py`` draws the same lifecycle
(swaps, damaged bundles, health, shedding, mixed budgets, close and
leaks) in random orders; these examples pin fixed scenarios of it.

No ``pytest-asyncio`` in the pinned environment: each test drives its
own event loop via ``asyncio.run``.
"""

import asyncio
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from _bundle_damage import delete_bundle, truncate_bundle
from _load_spy import fail_once, spy_on_loads
from repro.api import IndexSpec, build_index, save_index
from repro.index.persistence import IndexIntegrityError
from repro.serving import (
    AsyncIndexServer,
    ServerOverloadedError,
    ServingOptions,
    ShardedIndex,
    serve_in_thread,
)
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

    @pytest.mark.parametrize(
        "build",
        [
            dict(kind="annulus", family="annulus_sphere", t=1.5,
                 interval=(0.3, 0.6)),
            dict(kind="hyperplane", alpha=0.3, t=1.4),
            dict(kind="range_reporting", family="simhash", r_report=0.5,
                 distance="euclidean_distance"),
        ],
        ids=lambda build: build["kind"],
    )
    def test_budget_on_an_application_snapshot_is_not_admitted(
        self, tmp_path, build
    ):
        """Only raw indexes take ``max_retrieved``: on any other kind the
        budget is rejected at admission with a ``TypeError`` naming the
        kind, so it is never admitted and fails no batch."""
        points = sphere.random_points(100, 8, rng=3)
        query = sphere.random_points(1, 8, rng=4)[0]
        index = build_index(points, n_tables=4, rng=5, **build)
        save_index(index, tmp_path / "app")

        async def scenario():
            async with AsyncIndexServer(str(tmp_path / "app")) as server:
                with pytest.raises(TypeError, match=f"kind='{build['kind']}'"):
                    await server.query(query, max_retrieved=5)
                rejected = server.metrics()
                return rejected, await server.query(query)

        rejected, served = asyncio.run(scenario())
        assert (rejected["admitted"], rejected["failed"]) == (0, 0)
        assert served.result.stats == index.query(query).stats

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
# one handle per generation: sharded snapshots and health
# ---------------------------------------------------------------------------

#: Bound on any single await in the failure tests, so a regression that
#: wedges the server fails the test instead of hanging the suite.
TIMEOUT_S = 10.0


class TestShardedSnapshot:
    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "eager"])
    def test_options_reach_the_one_handle_and_answers_stay_exact(
        self, data, served_dir, flat, mmap
    ):
        """A sharded snapshot is loaded once, under the server's options,
        serves in-process, and stays exact for every budget while two
        batches run on the handle at once."""
        _, queries = data
        options = ServingOptions(mmap=mmap, verify="eager")
        budgets = [None, 5, 40]

        async def scenario():
            async with AsyncIndexServer(
                str(served_dir / "srv"),
                replicas=2,
                max_batch=4,
                max_wait_us=5_000,
                options=options,
            ) as server:
                handle = server._snapshot.index
                answers = await asyncio.gather(
                    *(server.query(q, max_retrieved=budget)
                      for budget in budgets for q in queries[:16])
                )
                return handle, answers, server.metrics()

        handle, answers, metrics = asyncio.run(scenario())
        assert isinstance(handle, ShardedIndex)
        assert handle.options == options
        assert multiprocessing.active_children() == []
        assert metrics["batches"] > 2
        for b, budget in enumerate(budgets):
            reference = flat.batch_query(queries[:16], max_retrieved=budget)
            served = answers[16 * b:16 * (b + 1)]
            for one, ref in zip(served, reference):
                _assert_exact(one, ref)
                assert one.stats.degraded is False


class TestHealth:
    @pytest.mark.parametrize(
        "error",
        [OSError("shard file unreadable"),
         IndexIntegrityError("shard bundle damaged", kind="checksum")],
        ids=["OSError", "IndexIntegrityError"],
    )
    def test_handle_failure_fails_fast_until_health_restores(
        self, data, served_dir, flat, monkeypatch, error
    ):
        """An infrastructure error fails its batch with that error and
        marks the generation unhealthy; later batches fail fast with a
        RuntimeError naming the generation, without touching the handle,
        until check_health finds the shard files intact."""
        _, queries = data
        loads = spy_on_loads(monkeypatch)

        async def scenario():
            async with AsyncIndexServer(
                str(served_dir / "srv"), replicas=2, max_wait_us=0
            ) as server:
                handle = loads[0][1]
                fail_once(handle, error)
                with pytest.raises(type(error), match=str(error)):
                    await server.query(queries[0])
                # Booby-trap the handle: a fast failure must not call it.
                handle.batch_query = None
                with pytest.raises(RuntimeError, match="generation 0"):
                    await server.query(queries[1])
                failed = server.metrics()["failed"]
                del handle.batch_query
                health = await server.check_health()
                recovered = await server.query(queries[2])
                return failed, health, recovered

        failed, health, recovered = asyncio.run(scenario())
        assert failed == 2
        assert len(loads) == 1
        assert health["ok"] is True
        assert set(health) == {"generation", "path", "ok", "detail"}
        assert health["generation"] == 0
        assert health["detail"]["shards"][0]["ok"] is True
        _assert_exact(recovered, flat.query(queries[2]))

    def test_swap_replaces_an_unhealthy_generation(
        self, data, served_dir, flat, monkeypatch
    ):
        _, queries = data
        loads = spy_on_loads(monkeypatch)

        async def scenario():
            async with AsyncIndexServer(
                str(served_dir / "srv"), max_wait_us=0
            ) as server:
                fail_once(loads[0][1], OSError("shard file unreadable"))
                with pytest.raises(OSError, match="unreadable"):
                    await server.query(queries[0])
                info = await server.swap(str(served_dir / "srv"))
                return info, await server.query(queries[0])

        info, served = asyncio.run(scenario())
        assert info["generation"] == 1
        assert served.serve.snapshot == 1
        _assert_exact(served, flat.query(queries[0]))

    def test_check_health_reports_damaged_files_and_stops_serving(
        self, data, served_dir
    ):
        _, queries = data

        async def scenario():
            async with AsyncIndexServer(str(served_dir / "srv")) as server:
                before = await server.check_health()
                delete_bundle(served_dir / "srv.shard0")
                after = await server.check_health()
                with pytest.raises(RuntimeError, match="generation 0"):
                    await server.query(queries[0])
                return before, after

        before, after = asyncio.run(scenario())
        assert before["ok"] is True
        assert after["ok"] is False
        assert after["detail"]["shards"][0]["ok"] is False
        assert after["detail"]["shards"][1]["ok"] is True

    def test_check_health_probes_a_single_bundle_on_disk(
        self, data, saved_single, tmp_path, monkeypatch
    ):
        """A single-bundle handle has no ``health()`` of its own, so
        check_health checks its bundle: a generation that failed with an
        OSError and whose bundle is then deleted stays unhealthy and keeps
        failing fast."""
        _, queries = data
        for name in os.listdir(saved_single.parent):
            shutil.copy2(saved_single.parent / name, tmp_path / name)
        loads = spy_on_loads(monkeypatch)

        async def scenario():
            async with AsyncIndexServer(
                str(tmp_path / "idx"), max_wait_us=0
            ) as server:
                before = await server.check_health()
                fail_once(loads[0][1], OSError("bundle unreadable"))
                with pytest.raises(OSError, match="unreadable"):
                    await server.query(queries[0])
                delete_bundle(tmp_path / "idx")
                after = await server.check_health()
                with pytest.raises(RuntimeError, match="generation 0"):
                    await server.query(queries[1])
                return before, after

        before, after = asyncio.run(scenario())
        assert before["ok"] is True
        assert after["ok"] is False
        assert set(after) == {"generation", "path", "ok", "detail"}
        assert after["detail"]["error"].startswith("FileNotFoundError")

    @pytest.mark.parametrize(
        "verify, flagged",
        [("off", False), ("lazy", True), ("eager", True)],
    )
    def test_single_bundle_probe_runs_at_the_servers_verify_level(
        self, saved_single, tmp_path, verify, flagged
    ):
        """A single bundle that loses its tail after the load still
        exists, so a server at ``verify="off"`` (a stat only) stays
        healthy; the size check of every other level names the bundle."""
        for name in os.listdir(saved_single.parent):
            shutil.copy2(saved_single.parent / name, tmp_path / name)
        # Eager load: the served arrays never touch the truncated file.
        options = ServingOptions(mmap=False, verify=verify)

        async def scenario():
            async with AsyncIndexServer(
                str(tmp_path / "idx"), options=options
            ) as server:
                truncate_bundle(tmp_path / "idx", 0.5)
                return await server.check_health()

        report = asyncio.run(scenario())
        assert report["ok"] is not flagged
        assert report["detail"]["verify"] == verify
        if flagged:
            assert report["detail"]["error"].startswith("IndexIntegrityError")
        else:
            assert "error" not in report["detail"]

    def test_unexpected_executor_error_frees_the_slot(
        self, data, saved_single, flat, monkeypatch
    ):
        """An error outside the handled families fails only its batch,
        as an internal serving failure: the execution slot is freed, so
        the next query is answered and close() returns, and the batch
        task leaves no unretrieved exception behind."""
        _, queries = data
        loads = spy_on_loads(monkeypatch)
        loop_errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            server = await AsyncIndexServer(
                str(saved_single), replicas=1, max_wait_us=0
            ).start()
            fail_once(loads[0][1], KeyError("lost bucket"))
            try:
                with pytest.raises(
                    RuntimeError, match="internal serving failure"
                ):
                    await asyncio.wait_for(
                        server.query(queries[0]), TIMEOUT_S
                    )
                served = await asyncio.wait_for(
                    server.query(queries[1]), TIMEOUT_S
                )
            finally:
                await asyncio.wait_for(server.close(), TIMEOUT_S)
            await asyncio.sleep(0)
            return served, server.metrics()

        served, metrics = asyncio.run(scenario())
        _assert_exact(served, flat.query(queries[1]))
        assert metrics["failed"] == 1
        assert metrics["served"] == 1
        assert loop_errors == []


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
        truncate_bundle(broken)
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

    def test_handle_batch_query_raises_only_once_every_row_is_done(
        self, saved_single, data
    ):
        _, queries = data
        block = np.vstack([np.full(D, np.nan), queries[:3]])
        # A long window holds the good rows well after the bad one failed
        # at admission; the call still returns only once they are served.
        with serve_in_thread(
            str(saved_single), max_batch=16, max_wait_us=200_000
        ) as handle:
            with pytest.raises(ValueError, match="finite"):
                handle.batch_query(block)
            metrics = handle.metrics()
        assert metrics["served"] == 3
        assert metrics["pending"] == 0
