"""Chaos suite for fault-tolerant sharded serving.

Every failure the serving path claims to survive is injected here via
:mod:`repro.serving.faults` and proven against the differential oracle:
after any recovery, results must be *bit-identical* to the unsharded
reference; after degradation, exactly equal to the surviving shards'
own reference.  Pool serving returns hits through the executor pipe, so
no pool test may create a shared-memory segment at all (asserted by
``/dev/shm`` accounting around every pool test), and repeated crash
recovery must leave no file descriptor, thread or child process behind.
"""

import multiprocessing
import os
import pathlib
import shutil
import threading
import time

import numpy as np
import pytest

from repro.api import IndexSpec, load_index
from repro.index.persistence import IndexIntegrityError
from repro.serving import (
    FaultInjected,
    PoolRecoveryError,
    ServingOptions,
    ShardedIndex,
)
from repro.serving import faults
from repro.spaces import hamming

D = 24
N_TABLES = 8
N_POINTS = 257
DEV_SHM = pathlib.Path("/dev/shm")


def _spec(shards=1):
    return IndexSpec(
        kind="raw",
        family="bit_sampling",
        family_params={"d": D, "power": 4},
        n_tables=N_TABLES,
        backend="packed",
        seed=11,
        shards=shards,
    )


def _clustered_points(n, rng):
    prototypes = hamming.random_points(10, D, rng=rng)
    rows = prototypes[rng.integers(0, prototypes.shape[0], size=n)]
    return rows ^ (rng.random(size=rows.shape) < 0.02).astype(np.int8)


def _assert_results_equal(reference, observed):
    assert len(reference) == len(observed)
    for a, b in zip(reference, observed):
        assert a.indices == b.indices
        assert a.stats == b.stats


def _resource_counts():
    """Open file descriptors, live threads and live child processes of
    this process (``active_children`` also reaps finished ones)."""
    return (
        len(os.listdir("/proc/self/fd")),
        threading.active_count(),
        len(multiprocessing.active_children()),
    )


def _assert_degraded_equal(reference, observed):
    """Candidates and retrieval stats match the surviving-shard
    reference; only the ``degraded`` flag differs (and must be set)."""
    assert len(reference) == len(observed)
    for a, b in zip(reference, observed):
        assert a.indices == b.indices
        assert b.stats.degraded is True
        assert a.stats.retrieved == b.stats.retrieved
        assert a.stats.unique_candidates == b.stats.unique_candidates
        assert a.stats.tables_probed == b.stats.tables_probed
        assert a.stats.truncated == b.stats.truncated


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
def saved(data, tmp_path_factory):
    """A pristine 2-shard save; tests that damage files work on copies."""
    points, _ = data
    root = tmp_path_factory.mktemp("pristine")
    ShardedIndex(points, _spec(shards=2)).save(root / "srv")
    return root


@pytest.fixture
def served_dir(saved, tmp_path):
    """Fresh mutable copy of the pristine save for this test."""
    for name in os.listdir(saved):
        shutil.copy2(saved / name, tmp_path / name)
    return tmp_path


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    """Arm-able token directory, exported to (future) pool workers via
    the environment; always disarmed afterwards so stray tokens cannot
    fire in later tests."""
    directory = tmp_path / "fault-tokens"
    monkeypatch.setenv(faults.ENV_FAULT_DIR, str(directory))
    yield directory
    faults.disarm_all(directory)


@pytest.fixture
def shm_guard():
    """Assert that pool serving creates no shared-memory segment: no
    ``psm_*`` entry may appear in ``/dev/shm`` while the test runs."""
    if not DEV_SHM.is_dir():
        pytest.skip("/dev/shm not available for segment accounting")
    before = {p.name for p in DEV_SHM.glob("psm_*")}
    yield
    created = {p.name for p in DEV_SHM.glob("psm_*")} - before
    assert not created, f"pool serving created segments: {sorted(created)}"


# ---------------------------------------------------------------------------
# faults module mechanics
# ---------------------------------------------------------------------------


class TestFaultHooks:
    def test_fault_point_is_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_FAULT_DIR, raising=False)
        faults.fault_point("pool_worker")  # must not raise

    def test_arm_claim_and_disarm(self, fault_dir):
        tokens = faults.arm(fault_dir, "pool_worker", "raise", count=2)
        assert len(tokens) == 2
        assert len(faults.armed(fault_dir)) == 2
        with pytest.raises(FaultInjected):
            faults.fault_point("pool_worker")
        assert len(faults.armed(fault_dir)) == 1  # one-shot: one consumed
        assert faults.disarm_all(fault_dir) == 1
        faults.fault_point("pool_worker")  # disarmed: no-op

    def test_tokens_are_point_scoped(self, fault_dir):
        faults.arm(fault_dir, "other_point", "raise")
        faults.fault_point("pool_worker")  # different point: not claimed
        assert len(faults.armed(fault_dir)) == 1

    def test_sleep_action_delays(self, fault_dir):
        faults.arm(fault_dir, "pool_worker", "sleep:0.2")
        start = time.monotonic()
        faults.fault_point("pool_worker")
        assert time.monotonic() - start >= 0.2

    def test_unknown_action_and_bad_point_name(self, fault_dir):
        faults.arm(fault_dir, "pool_worker", "explode")
        with pytest.raises(ValueError, match="unknown fault action"):
            faults.fault_point("pool_worker")
        with pytest.raises(ValueError, match="must not contain"):
            faults.arm(fault_dir, "bad@point")

    def test_corrupt_bundle_flips_one_byte_in_place(self, served_dir):
        npz = served_dir / "srv.shard0.npz"
        original = npz.read_bytes()
        offset = faults.corrupt_bundle(served_dir / "srv.shard0")
        mutated = npz.read_bytes()
        assert len(mutated) == len(original)
        assert mutated[offset] == original[offset] ^ 0xFF
        assert sum(a != b for a, b in zip(original, mutated)) == 1
        with pytest.raises(ValueError, match="no member"):
            faults.corrupt_bundle(served_dir / "srv.shard1", member="nope")

    def test_truncate_bundle(self, served_dir):
        npz = served_dir / "srv.shard0.npz"
        before = npz.stat().st_size
        kept = faults.truncate_bundle(served_dir / "srv.shard0", 0.5)
        assert npz.stat().st_size == kept < before
        with pytest.raises(ValueError, match="keep_fraction"):
            faults.truncate_bundle(served_dir / "srv.shard0", 1.5)


# ---------------------------------------------------------------------------
# pool crash recovery
# ---------------------------------------------------------------------------


class TestPoolRecovery:
    def test_killed_worker_recovered_bit_identical(
        self, data, flat, served_dir, fault_dir, shm_guard
    ):
        _, queries = data
        reference = flat.batch_query(queries, max_retrieved=23)
        with load_index(served_dir / "srv", options=ServingOptions(workers=2)) as served:
            faults.arm(fault_dir, "pool_worker", "kill")
            observed = served.batch_query(queries, max_retrieved=23)
            _assert_results_equal(reference, observed)
            assert served.last_health["respawns"] >= 1
            assert served.last_health["retries"] >= 1
            assert served.last_health["failed_shards"] == []
            # The recovered pool keeps serving without further incident.
            _assert_results_equal(
                reference, served.batch_query(queries, max_retrieved=23)
            )
            assert served.last_health["respawns"] == 0

    def test_retries_exhausted_raises_then_pool_recovers(
        self, data, flat, served_dir, fault_dir, shm_guard
    ):
        _, queries = data
        opts = ServingOptions(workers=1, max_retries=1, retry_backoff_s=0.01)
        with load_index(served_dir / "srv", options=opts) as served:
            faults.arm(fault_dir, "pool_worker", "kill", count=10)
            with pytest.raises(PoolRecoveryError, match="retries exhausted"):
                served.batch_query(queries)
            assert served.last_health["failed_shards"]
            faults.disarm_all(fault_dir)
            # The same handle serves again once the faults stop.
            _assert_results_equal(
                flat.batch_query(queries), served.batch_query(queries)
            )

    def test_timeout_deadline_raises_builtin_timeout(
        self, data, flat, served_dir, fault_dir, shm_guard
    ):
        _, queries = data
        with load_index(served_dir / "srv", options=ServingOptions(workers=1)) as served:
            faults.arm(fault_dir, "pool_worker", "sleep:2.0")
            start = time.monotonic()
            with pytest.raises(TimeoutError) as excinfo:
                served.batch_query(queries, timeout=0.3)
            assert type(excinfo.value) is TimeoutError  # builtin, all Pythons
            assert time.monotonic() - start < 1.5
            # The straggler drains and the pool serves the next request.
            _assert_results_equal(
                flat.batch_query(queries), served.batch_query(queries)
            )

    def test_rejects_nonpositive_timeout(self, data, served_dir):
        _, queries = data
        with load_index(served_dir / "srv", options=ServingOptions(workers=1)) as served:
            with pytest.raises(ValueError, match="timeout must be positive"):
                served.batch_query(queries, timeout=0.0)

    def test_kill_respawn_soak_leaks_nothing(
        self, data, flat, served_dir, fault_dir, shm_guard
    ):
        """Five kill/respawn cycles, each answered bit-identically, then
        close(): open fds, threads and child processes are back where
        they were before the load."""
        _, queries = data
        reference = flat.batch_query(queries, max_retrieved=23)
        options = ServingOptions(workers=2)
        # One load/close first, so process-wide helpers a pool may start
        # once (a fork server, the resource tracker) exist before counting.
        load_index(served_dir / "srv", options=options).close()
        multiprocessing.active_children()
        before = _resource_counts()
        served = load_index(served_dir / "srv", options=options)
        try:
            for _ in range(5):
                faults.arm(fault_dir, "pool_worker", "kill")
                observed = served.batch_query(queries, max_retrieved=23)
                _assert_results_equal(reference, observed)
                assert served.last_health["respawns"] >= 1
                assert served.last_health["failed_shards"] == []
        finally:
            served.close()
        deadline = time.monotonic() + 5.0
        while _resource_counts() != before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _resource_counts() == before


# ---------------------------------------------------------------------------
# graceful degradation
# ---------------------------------------------------------------------------


class TestGracefulDegradation:
    def test_degrade_serves_surviving_shards_exactly(
        self, data, served_dir, fault_dir, shm_guard
    ):
        points, queries = data
        with load_index(served_dir / "srv", options=ServingOptions(workers=2, on_shard_failure="degrade")) as served:
            split = int(served.bounds[1])
            served.batch_query(queries)  # healthy warm-up
            assert served.last_health["degraded"] is False
            faults.delete_bundle(served_dir / "srv.shard1")
            observed = served.batch_query(queries)
            # The exact oracle: an unsharded index over shard 0's points.
            survivor = _spec().build(points[:split])
            _assert_degraded_equal(survivor.batch_query(queries), observed)
            report = served.last_health
            assert report["degraded"] is True
            assert [f["shard"] for f in report["failed_shards"]] == [1]
            assert "FileNotFoundError" in report["failed_shards"][0]["error"]

    def test_raise_mode_propagates_shard_failure(
        self, data, served_dir, fault_dir, shm_guard
    ):
        _, queries = data
        with load_index(served_dir / "srv", options=ServingOptions(workers=1)) as served:
            served.batch_query(queries)
            faults.delete_bundle(served_dir / "srv.shard1")
            with pytest.raises(PoolRecoveryError, match="srv.shard1"):
                served.batch_query(queries)

    def test_all_shards_failed_raises_even_in_degrade_mode(
        self, data, served_dir, fault_dir, shm_guard
    ):
        _, queries = data
        with load_index(served_dir / "srv", options=ServingOptions(workers=1, on_shard_failure="degrade")) as served:
            served.batch_query(queries)
            faults.delete_bundle(served_dir / "srv.shard0")
            faults.delete_bundle(served_dir / "srv.shard1")
            with pytest.raises(PoolRecoveryError, match="every shard"):
                served.batch_query(queries)

    def test_load_validates_mode_values(self, served_dir):
        with pytest.raises(ValueError, match="on_shard_failure"):
            load_index(served_dir / "srv", options=ServingOptions(workers=1, on_shard_failure="nope"))
        with pytest.raises(ValueError, match="verify mode"):
            load_index(served_dir / "srv", options=ServingOptions(workers=1, verify="paranoid"))


# ---------------------------------------------------------------------------
# integrity-checked loads under fault injection
# ---------------------------------------------------------------------------


class TestIntegrityUnderFaults:
    def test_eager_load_rejects_corrupted_shard(self, served_dir):
        faults.corrupt_bundle(served_dir / "srv.shard0")
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(served_dir / "srv", options=ServingOptions(workers=1, verify="eager"))
        assert excinfo.value.kind == "checksum"

    def test_lazy_load_rejects_truncated_shard(self, served_dir):
        faults.truncate_bundle(served_dir / "srv.shard1", 0.5)
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(served_dir / "srv", options=ServingOptions(workers=1, verify="lazy"))
        assert excinfo.value.kind == "truncated"

    def test_hot_swapped_corruption_caught_by_worker(
        self, data, served_dir, fault_dir, shm_guard
    ):
        """Corruption arriving *after* load (in-place rewrite) is caught
        by the worker-side re-verify on reload, not served silently."""
        points, queries = data
        with load_index(served_dir / "srv", options=ServingOptions(workers=1, verify="eager", on_shard_failure="degrade")) as served:
            split = int(served.bounds[1])
            served.batch_query(queries)  # healthy, caches the clean shard
            faults.corrupt_bundle(served_dir / "srv.shard1")
            observed = served.batch_query(queries)
            survivor = _spec().build(points[:split])
            _assert_degraded_equal(survivor.batch_query(queries), observed)
            error = served.last_health["failed_shards"][0]["error"]
            assert "IndexIntegrityError" in error


# ---------------------------------------------------------------------------
# health probe
# ---------------------------------------------------------------------------


class TestHealthProbe:
    def test_healthy_pool_report(self, served_dir, shm_guard):
        with load_index(served_dir / "srv", options=ServingOptions(workers=2)) as served:
            report = served.health()
            assert report["ok"] is True
            assert report["mode"] == "pool"
            assert all(s["ok"] for s in report["shards"])
            assert all("signature" in s for s in report["shards"])
            assert report["workers"]["ok"] is True
            assert 1 <= len(report["workers"]["alive_pids"]) <= 2
            assert os.getpid() not in report["workers"]["alive_pids"]

    def test_health_flags_damaged_shard(self, served_dir, shm_guard):
        with load_index(served_dir / "srv", options=ServingOptions(workers=1)) as served:
            faults.delete_bundle(served_dir / "srv.shard0")
            report = served.health()
            assert report["ok"] is False
            assert report["shards"][0]["ok"] is False
            assert "FileNotFoundError" in report["shards"][0]["error"]
            assert report["shards"][1]["ok"] is True

    def test_health_eager_override_catches_bit_flip(
        self, served_dir, shm_guard
    ):
        with load_index(served_dir / "srv", options=ServingOptions(workers=1)) as served:
            faults.corrupt_bundle(served_dir / "srv.shard1")
            assert served.health()["ok"] is True  # lazy: size unchanged
            report = served.health(verify="eager")
            assert report["ok"] is False
            assert "IndexIntegrityError" in report["shards"][1]["error"]

    def test_health_modes(self, data, served_dir):
        points, _ = data
        in_memory = ShardedIndex(points, _spec(shards=2))
        assert in_memory.health()["mode"] == "in-process"
        assert in_memory.health()["ok"] is True
        served = load_index(served_dir / "srv", options=ServingOptions(workers=1))
        served.close()
        assert served.health()["mode"] == "closed"
        assert served.health()["ok"] is False
