"""Damaged shard files: load-time integrity checks and the health probe.

A sharded index opens every shard bundle in the calling process, so a
bundle that rotted on disk or lost its tail must be rejected at load
time under the matching ``verify=`` level, and
:meth:`~repro.serving.sharded.ShardedIndex.health` must name a shard
whose file was damaged or deleted after the load.  The damage helpers
live in ``tests/_bundle_damage.py``.
"""

import os
import shutil

import numpy as np
import pytest

from _bundle_damage import corrupt_bundle, delete_bundle, truncate_bundle
from repro.api import IndexSpec, load_index
from repro.index.persistence import IndexIntegrityError
from repro.serving import ServingOptions, ShardedIndex
from repro.spaces import hamming

D = 24
N_TABLES = 8
N_POINTS = 257


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


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    points = _clustered_points(N_POINTS, rng)
    queries = np.concatenate([points[:8], _clustered_points(40, rng)])
    return points, queries


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


# ---------------------------------------------------------------------------
# damage helpers
# ---------------------------------------------------------------------------


class TestDamageHelpers:
    def test_corrupt_bundle_flips_one_byte_in_place(self, served_dir):
        npz = served_dir / "srv.shard0.npz"
        original = npz.read_bytes()
        offset = corrupt_bundle(served_dir / "srv.shard0")
        mutated = npz.read_bytes()
        assert len(mutated) == len(original)
        assert mutated[offset] == original[offset] ^ 0xFF
        assert sum(a != b for a, b in zip(original, mutated)) == 1
        with pytest.raises(ValueError, match="no member"):
            corrupt_bundle(served_dir / "srv.shard1", member="nope")

    def test_truncate_bundle(self, served_dir):
        npz = served_dir / "srv.shard0.npz"
        before = npz.stat().st_size
        kept = truncate_bundle(served_dir / "srv.shard0", 0.5)
        assert npz.stat().st_size == kept < before
        with pytest.raises(ValueError, match="keep_fraction"):
            truncate_bundle(served_dir / "srv.shard0", 1.5)


# ---------------------------------------------------------------------------
# load-time integrity checks
# ---------------------------------------------------------------------------


class TestIntegrityUnderFaults:
    def test_load_validates_mode_values(self, served_dir):
        with pytest.raises(ValueError, match="verify mode"):
            load_index(
                served_dir / "srv", options=ServingOptions(verify="paranoid")
            )

    def test_eager_load_rejects_corrupted_shard(self, served_dir):
        corrupt_bundle(served_dir / "srv.shard0")
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(
                served_dir / "srv", options=ServingOptions(verify="eager")
            )
        assert excinfo.value.kind == "checksum"

    def test_lazy_load_rejects_truncated_shard(self, served_dir):
        truncate_bundle(served_dir / "srv.shard1", 0.5)
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(
                served_dir / "srv", options=ServingOptions(verify="lazy")
            )
        assert excinfo.value.kind == "truncated"

    def test_load_rejects_deleted_shard(self, served_dir):
        delete_bundle(served_dir / "srv.shard1")
        with pytest.raises(FileNotFoundError, match="srv.shard1"):
            load_index(served_dir / "srv")


# ---------------------------------------------------------------------------
# health probe
# ---------------------------------------------------------------------------


class TestHealthProbe:
    def test_healthy_loaded_report(self, served_dir):
        served = load_index(served_dir / "srv")
        report = served.health()
        assert report["ok"] is True
        assert report["mode"] == "in-process"
        assert report["verify"] == "lazy"
        assert [s["shard"] for s in report["shards"]] == [0, 1]
        assert all(s["ok"] for s in report["shards"])
        assert all(s["path"].endswith(f"srv.shard{s['shard']}")
                   for s in report["shards"])

    def test_health_flags_damaged_shard(self, served_dir):
        served = load_index(served_dir / "srv")
        delete_bundle(served_dir / "srv.shard0")
        report = served.health()
        assert report["ok"] is False
        assert report["shards"][0]["ok"] is False
        assert "FileNotFoundError" in report["shards"][0]["error"]
        assert report["shards"][1]["ok"] is True
        # A deleted bundle is flagged even when checksums are off.
        assert served.health(verify="off")["ok"] is False

    def test_health_eager_override_catches_bit_flip(self, served_dir):
        served = load_index(served_dir / "srv")
        corrupt_bundle(served_dir / "srv.shard1")
        assert served.health()["ok"] is True  # lazy: size unchanged
        report = served.health(verify="eager")
        assert report["ok"] is False
        assert "IndexIntegrityError" in report["shards"][1]["error"]

    @pytest.mark.parametrize(
        "verify, flagged",
        [("off", False), ("lazy", True), ("eager", True)],
    )
    def test_health_level_decides_whether_truncation_shows(
        self, served_dir, verify, flagged
    ):
        """A shard that loses its tail after the load still exists, so
        ``verify="off"`` (a stat only) passes it; the size check of every
        other level names it."""
        served = load_index(served_dir / "srv")
        truncate_bundle(served_dir / "srv.shard1", 0.5)
        report = served.health(verify=verify)
        assert report["verify"] == verify
        assert report["ok"] is not flagged
        assert report["shards"][0]["ok"] is True
        assert report["shards"][1]["ok"] is not flagged
        if flagged:
            assert "IndexIntegrityError" in report["shards"][1]["error"]

    def test_eager_snapshot_outlives_corruption_health_names_it(
        self, data, served_dir
    ):
        """An index loaded with ``mmap=False`` serves the bytes it read at
        load time; a later bit flip in a shard file does not reach its
        answers, but the eager health probe reports the file."""
        points, queries = data
        reference = _spec().build(points).batch_query(queries)
        served = load_index(
            served_dir / "srv",
            options=ServingOptions(mmap=False, verify="eager"),
        )
        corrupt_bundle(served_dir / "srv.shard0")
        for ref, obs in zip(reference, served.batch_query(queries)):
            assert obs.indices == ref.indices
            assert obs.stats == ref.stats
        report = served.health()
        assert report["verify"] == "eager"
        assert report["ok"] is False
        assert "IndexIntegrityError" in report["shards"][0]["error"]
        assert report["shards"][1]["ok"] is True

    def test_health_modes(self, data, served_dir):
        points, _ = data
        in_memory = ShardedIndex(points, _spec(shards=2))
        assert in_memory.health()["mode"] == "in-process"
        assert in_memory.health()["ok"] is True
        served = load_index(served_dir / "srv")
        served.close()  # a no-op: the index keeps serving
        assert served.health()["mode"] == "in-process"
        assert served.health()["ok"] is True
        with pytest.raises(ValueError, match="verify mode"):
            served.health(verify="paranoid")
