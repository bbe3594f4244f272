"""Save→load round-trip parity suite.

A persisted index must be *observably identical* to the in-memory original:
same candidates, same candidate order, same :class:`QueryStats`, on both
storage backends, for every application kind — whether the arrays come back
as zero-copy memory maps (``mmap=True``) or eager copies.  The loaded hash
pairs are regenerated from the recorded bit-generator state, so the suite
also covers indexes built *without* a fixed seed.
"""

import json
import os
import pickle

import numpy as np
import pytest

from _bundle_damage import corrupt_bundle, truncate_bundle
from repro.api import (
    IndexSpec,
    build_index,
    index_paths,
    load_index,
    save_index,
    verify_saved_index,
)
from repro.index import DSHIndex
from repro.index.persistence import (
    FORMAT_VERSION,
    IndexIntegrityError,
    read_arrays,
    write_arrays,
)
from repro.serving import ServingOptions, ShardedIndex
from repro.families.bit_sampling import BitSampling
from repro.spaces import euclidean, hamming, sphere
from repro.utils.rng import rng_from_state, rng_state

BACKENDS = ["dict", "packed"]

# Three raw-kind families over three spaces: multi-component Hamming rows,
# genuinely asymmetric Euclidean rows, and the Section 6.2 sphere family.
RAW_CASES = [
    (
        "bit-sampling",
        dict(family="bit_sampling", power=4),
        lambda n, rng: hamming.random_points(n, 24, rng=rng),
    ),
    (
        "euclidean-lsh",
        dict(family="euclidean_lsh", w=2.0, k=2),
        lambda n, rng: euclidean.random_points(n, 8, rng=rng),
    ),
    (
        "annulus-sphere",
        dict(family="annulus_sphere", alpha_max=0.3, t=1.5),
        lambda n, rng: sphere.random_points(n, 12, rng=rng),
    ),
]
CASE_IDS = [case[0] for case in RAW_CASES]

N_POINTS = 220
N_TABLES = 8


def _queries(points, sampler, seed):
    fresh = sampler(6, 500 + seed)
    return np.concatenate([points[:6], fresh])


def _assert_candidates_equal(original, loaded):
    assert len(original) == len(loaded)
    for a, b in zip(original, loaded):
        assert a.indices == b.indices
        assert a.stats == b.stats


def _assert_annulus_equal(a, b):
    assert a.index == b.index
    assert a.stats == b.stats
    if a.found:
        assert a.proximity == b.proximity
    else:
        assert np.isnan(a.proximity) and np.isnan(b.proximity)


class TestRawRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", RAW_CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "eager"])
    def test_batch_and_single_queries_identical(
        self, tmp_path, backend, case, mmap
    ):
        _, params, sampler = case
        points = sampler(N_POINTS, 7)
        queries = _queries(points, sampler, 7)
        index = build_index(
            points, kind="raw", n_tables=N_TABLES, rng=42, backend=backend,
            **params,
        )
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", options=ServingOptions(mmap=mmap))
        assert loaded.spec == index.spec
        assert loaded.n_points == index.n_points
        assert loaded.dim == index.dim
        for budget in (None, 0, 5, 8 * N_TABLES):
            _assert_candidates_equal(
                index.batch_query(queries, max_retrieved=budget),
                loaded.batch_query(queries, max_retrieved=budget),
            )
        assert index.query(queries[0]) == loaded.query(queries[0])
        assert index.bucket_sizes() == loaded.bucket_sizes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roundtrip_without_fixed_seed(self, tmp_path, backend):
        """rng=None draws OS entropy; the recorded bit-generator state must
        still revive identical hash pairs."""
        points = hamming.random_points(N_POINTS, 24, rng=3)
        queries = _queries(
            points, lambda n, rng: hamming.random_points(n, 24, rng=rng), 3
        )
        index = build_index(
            points, kind="raw", family="bit_sampling", power=4,
            n_tables=N_TABLES, rng=None, backend=backend,
        )
        assert index.spec.seed is None
        save_index(index, tmp_path / "noseed")
        loaded = load_index(tmp_path / "noseed")
        _assert_candidates_equal(
            index.batch_query(queries), loaded.batch_query(queries)
        )

    def test_resave_of_loaded_index_over_itself(self, tmp_path):
        """Re-saving a memmap-loaded index to its own path must not read
        back a truncated file: writes go to a temp file and os.replace over
        the target, so the live views keep the old inode."""
        points = hamming.random_points(N_POINTS, 24, rng=2)
        queries = _queries(
            points, lambda n, rng: hamming.random_points(n, 24, rng=rng), 2
        )
        index = build_index(
            points, kind="raw", family="bit_sampling", power=4,
            n_tables=N_TABLES, rng=6, backend="packed",
        )
        reference = index.batch_query(queries)
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", options=ServingOptions(mmap=True))
        save_index(loaded, tmp_path / "idx")  # in-place re-save
        _assert_candidates_equal(reference, loaded.batch_query(queries))
        reloaded = load_index(tmp_path / "idx")
        _assert_candidates_equal(reference, reloaded.batch_query(queries))

    def test_loaded_packed_arrays_are_memory_mapped(self, tmp_path):
        points = hamming.random_points(N_POINTS, 24, rng=0)
        index = build_index(
            points, kind="raw", family="bit_sampling", power=4,
            n_tables=N_TABLES, rng=1, backend="packed",
        )
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", options=ServingOptions(mmap=True))
        assert isinstance(loaded._backend._ids, np.memmap)
        eager = load_index(tmp_path / "idx", options=ServingOptions(mmap=False))
        assert not isinstance(eager._backend._ids, np.memmap)


class TestApplicationKindsRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_annulus(self, tmp_path, backend):
        points = sphere.random_points(N_POINTS, 12, rng=5)
        index = build_index(
            points, kind="annulus", family="annulus_sphere", t=1.6,
            interval=(0.3, 0.8), n_tables=40, rng=9, backend=backend,
        )
        save_index(index, tmp_path / "ann")
        loaded = load_index(tmp_path / "ann")
        for a, b in zip(
            index.batch_query(points[:12]), loaded.batch_query(points[:12])
        ):
            _assert_annulus_equal(a, b)
        _assert_annulus_equal(index.query(points[0]), loaded.query(points[0]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hyperplane(self, tmp_path, backend):
        points = sphere.random_points(N_POINTS, 12, rng=6)
        index = build_index(
            points, kind="hyperplane", alpha=0.25, t=1.5, n_tables=30,
            rng=4, backend=backend,
        )
        save_index(index, tmp_path / "hyp")
        loaded = load_index(tmp_path / "hyp")
        assert loaded.alpha == index.alpha
        for a, b in zip(
            index.batch_query(points[:12]), loaded.batch_query(points[:12])
        ):
            _assert_annulus_equal(a, b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_reporting(self, tmp_path, backend):
        points = sphere.random_points(N_POINTS, 12, rng=8)
        index = build_index(
            points, kind="range_reporting", family="simhash", power=3,
            r_report=0.9, distance="euclidean_distance", n_tables=25,
            rng=2, backend=backend,
        )
        save_index(index, tmp_path / "rr")
        loaded = load_index(tmp_path / "rr")
        assert loaded.r_report == index.r_report
        for a, b in zip(
            index.batch_query(points[:12]), loaded.batch_query(points[:12])
        ):
            assert a.indices == b.indices
            assert a.stats == b.stats
            assert a.in_range_retrievals == b.in_range_retrievals


# One spec per kind: (build_index parameters, point sampler).
KIND_CASES = {
    "raw": (
        dict(kind="raw", family="bit_sampling", power=4),
        lambda n, rng: hamming.random_points(n, 24, rng=rng),
    ),
    "annulus": (
        dict(kind="annulus", family="annulus_sphere", t=1.6,
             interval=(0.3, 0.8)),
        lambda n, rng: sphere.random_points(n, 12, rng=rng),
    ),
    "hyperplane": (
        dict(kind="hyperplane", alpha=0.25, t=1.5),
        lambda n, rng: sphere.random_points(n, 12, rng=rng),
    ),
    "range_reporting": (
        dict(kind="range_reporting", family="simhash", power=3,
             r_report=0.9, distance="euclidean_distance"),
        lambda n, rng: sphere.random_points(n, 12, rng=rng),
    ),
}


class TestEveryKindRoundTrip:
    """Build and load share one assembly path per kind: the loaded index
    is the built one — same type, dimension, stored tables and answers."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    def test_load_reproduces_build(self, tmp_path, kind, backend):
        params, sampler = KIND_CASES[kind]
        points = sampler(N_POINTS, 3)
        built = build_index(
            points, n_tables=20, rng=5, backend=backend, **params
        )
        save_index(built, tmp_path / kind)
        loaded = load_index(tmp_path / kind)
        assert type(loaded) is type(built)
        assert loaded.dim == built.dim == points.shape[1]
        ours, theirs = (
            (index if isinstance(index, DSHIndex) else index._index)
            ._backend.export_arrays()
            for index in (built, loaded)
        )
        assert sorted(ours) == sorted(theirs)
        for name, array in ours.items():
            other = np.asarray(theirs[name])
            assert other.dtype == array.dtype, name
            assert other.tobytes() == np.asarray(array).tobytes(), name
        queries = sampler(12, 9)
        # repr is exact for floats and prints a nan proximity as "nan".
        assert [repr(r) for r in loaded.batch_query(queries)] == [
            repr(r) for r in built.batch_query(queries)
        ]


class TestPersistenceErrors:
    def _saved(self, tmp_path):
        points = hamming.random_points(60, 16, rng=0)
        index = build_index(
            points, kind="raw", family="bit_sampling", n_tables=2, rng=0
        )
        save_index(index, tmp_path / "idx")
        return index

    def test_save_requires_spec(self, tmp_path):
        index = DSHIndex(BitSampling(16), n_tables=2, rng=0).build(
            hamming.random_points(60, 16, rng=0)
        )
        with pytest.raises(ValueError, match="no spec"):
            save_index(index, tmp_path / "raw")

    def test_load_rejects_future_format(self, tmp_path):
        self._saved(tmp_path)
        _, json_path = index_paths(tmp_path / "idx")
        sidecar = json.loads(json_path.read_text())
        sidecar["format"] = FORMAT_VERSION + 1
        json_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="unsupported index format"):
            load_index(tmp_path / "idx")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "nothing")

    def test_workers_invalid_for_single_index(self, tmp_path):
        self._saved(tmp_path)
        with pytest.raises(ValueError, match="sharded indexes only"):
            load_index(tmp_path / "idx", options=ServingOptions(workers=2))

    def test_index_paths_appends_suffixes(self):
        for given in ("base", "base.npz", "base.json"):
            npz, sidecar = index_paths(given)
            assert npz.name == "base.npz" and sidecar.name == "base.json"
        npz, sidecar = index_paths("run.shard0")
        assert npz.name == "run.shard0.npz"
        assert sidecar.name == "run.shard0.json"


class TestArrayBundles:
    def test_mmap_members_match_eager(self, tmp_path):
        arrays = {
            "ids32": np.arange(1000, dtype=np.int32),
            "fps": np.random.default_rng(0).integers(
                0, 2**63, size=500
            ).astype(np.uint64),
            "points": np.random.default_rng(1).normal(size=(40, 7)),
            "empty": np.empty(0, dtype=np.int64),
        }
        path = write_arrays(tmp_path / "bundle.npz", arrays)
        mapped = read_arrays(path, mmap=True)
        eager = read_arrays(path, mmap=False)
        assert set(mapped) == set(arrays)
        for name, original in arrays.items():
            np.testing.assert_array_equal(mapped[name], original)
            np.testing.assert_array_equal(eager[name], original)
            assert mapped[name].dtype == original.dtype
        assert isinstance(mapped["points"], np.memmap)
        assert not isinstance(eager["points"], np.memmap)

    def test_write_arrays_suffix_handling(self, tmp_path):
        """``write_arrays`` appends ``.npz`` via a proper suffix check —
        historically a ``name[-4:]`` slice that misfired on names shorter
        than four characters and on uppercase suffixes."""
        arrays = {"ids": np.arange(5, dtype=np.int64)}
        # Short / odd names must gain the suffix, never crash or double it.
        for given, expected in [
            ("a", "a.npz"),
            ("npz", "npz.npz"),
            ("x.np", "x.np.npz"),
            ("bundle.npz", "bundle.npz"),
        ]:
            path = write_arrays(tmp_path / given, arrays)
            assert path.name == expected
            np.testing.assert_array_equal(read_arrays(path)["ids"], arrays["ids"])
        # An uppercase suffix already names an npz: keep it as-is.
        path = write_arrays(tmp_path / "bundle.NPZ", arrays)
        assert path.name == "bundle.NPZ"
        np.testing.assert_array_equal(read_arrays(path)["ids"], arrays["ids"])


class TestIntegrityVerification:
    """Corrupted-persistence coverage: every damage class a bundle can
    suffer on disk maps to the right :class:`IndexIntegrityError` kind at
    the right verify level — and checksum-less legacy bundles keep
    loading."""

    def _saved(self, tmp_path):
        points = hamming.random_points(60, 16, rng=0)
        queries = points[:10]
        index = build_index(
            points, kind="raw", family="bit_sampling", n_tables=2, rng=0
        )
        save_index(index, tmp_path / "idx")
        return index, tmp_path / "idx", queries

    def _edit_sidecar(self, base, mutate):
        _, json_path = index_paths(base)
        sidecar = json.loads(json_path.read_text())
        mutate(sidecar)
        json_path.write_text(json.dumps(sidecar))

    def test_truncation_caught_at_every_level(self, tmp_path):
        _, base, _ = self._saved(tmp_path)
        truncate_bundle(base, 0.5)
        for verify in ("lazy", "eager"):
            with pytest.raises(IndexIntegrityError) as excinfo:
                load_index(base, options=ServingOptions(verify=verify))
            assert excinfo.value.kind == "truncated"
        with pytest.raises(IndexIntegrityError):
            verify_saved_index(base, verify="lazy")

    def test_bit_flip_caught_by_eager_only(self, tmp_path):
        """In-place corruption keeps the size: lazy (O(1)) admits it —
        the documented trade-off — while eager re-checksums and rejects."""
        _, base, queries = self._saved(tmp_path)
        corrupt_bundle(base)
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(base, options=ServingOptions(verify="eager"))
        assert excinfo.value.kind == "checksum"
        # Lazy load itself succeeds — the corrupted bytes are admitted
        # (queries over them may then fail arbitrarily; that is the
        # documented price of the O(1) check).
        loaded = load_index(base, options=ServingOptions(verify="lazy"))
        assert loaded.n_points == 60

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_rejected_eager_load_closes_its_descriptors(self, tmp_path):
        """A bundle that fails its eager checksum holds no descriptor
        through the error: every member's memory map is released while
        the traceback (kept alive here by ``excinfo``) still exists."""
        _, base, _ = self._saved(tmp_path)
        corrupt_bundle(base)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(base, options=ServingOptions(verify="eager"))
        assert excinfo.value.kind == "checksum"
        assert len(os.listdir("/proc/self/fd")) == before

    def test_size_skew_modes(self, tmp_path):
        """The recorded archive size is the lazy check; ``verify="off"``
        skips it and serves the (readable) bundle regardless."""
        index, base, queries = self._saved(tmp_path)
        reference = index.batch_query(queries)
        self._edit_sidecar(
            base, lambda s: s["integrity"].__setitem__(
                "npz_nbytes", s["integrity"]["npz_nbytes"] + 1
            )
        )
        for verify in ("lazy", "eager"):
            with pytest.raises(IndexIntegrityError) as excinfo:
                load_index(base, options=ServingOptions(verify=verify))
            assert excinfo.value.kind == "truncated"
        loaded = load_index(base, options=ServingOptions(verify="off"))
        for a, b in zip(reference, loaded.batch_query(queries)):
            assert a.indices == b.indices and a.stats == b.stats

    def test_member_skew_is_a_manifest_error(self, tmp_path):
        _, base, _ = self._saved(tmp_path)

        def flip_dtype(sidecar):
            members = sidecar["integrity"]["members"]
            record = members[sorted(members)[0]]
            record["dtype"] = "<i2"

        self._edit_sidecar(base, flip_dtype)
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(base, options=ServingOptions(verify="eager"))
        assert excinfo.value.kind == "manifest"

    def test_legacy_sidecar_without_checksums_still_loads(self, tmp_path):
        """Bundles saved before integrity records existed have no
        ``"integrity"`` block; every verify level must accept them."""
        index, base, queries = self._saved(tmp_path)
        reference = index.batch_query(queries)
        self._edit_sidecar(base, lambda s: s.pop("integrity"))
        verify_saved_index(base, verify="eager")  # no record: no raise
        for verify in ("lazy", "eager", "off"):
            loaded = load_index(base, options=ServingOptions(verify=verify))
            for a, b in zip(reference, loaded.batch_query(queries)):
                assert a.indices == b.indices and a.stats == b.stats

    def test_unknown_verify_mode_rejected(self, tmp_path):
        _, base, _ = self._saved(tmp_path)
        with pytest.raises(ValueError, match="verify mode"):
            load_index(base, options=ServingOptions(verify="paranoid"))
        with pytest.raises(ValueError, match="verify mode"):
            verify_saved_index(base, verify="sometimes")

    def test_sharded_manifest_coherence(self, tmp_path):
        points = hamming.random_points(60, 16, rng=0)
        spec = IndexSpec(
            kind="raw", family="bit_sampling", family_params={"d": 16},
            n_tables=2, backend="packed", seed=0, shards=2,
        )
        ShardedIndex(points, spec).save(tmp_path / "srv")
        verify_saved_index(tmp_path / "srv")  # pristine: healthy

        def drop_shard(sidecar):
            sidecar["shards"] = sidecar["shards"][:1]

        self._edit_sidecar(tmp_path / "srv", drop_shard)
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(tmp_path / "srv")
        assert excinfo.value.kind == "manifest"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s.__setitem__("format", FORMAT_VERSION + 1),
            lambda s: s.__setitem__("layout", "single"),
            lambda s: s.__setitem__("shards", []),
            lambda s: s.__setitem__("shards", s["shards"] * 2),
            lambda s: s.__setitem__("bounds", s["bounds"][:-1]),
            lambda s: s.__setitem__(
                "bounds", [b + 1 for b in s["bounds"]]
            ),
            lambda s: s.__setitem__(
                "bounds", [0, s["bounds"][2], s["bounds"][1]]
            ),
        ],
        ids=[
            "format", "layout", "no-shards", "shard-skew",
            "bounds-length", "bounds-start", "bounds-order",
        ],
    )
    def test_direct_sharded_load_reports_manifest_errors(
        self, tmp_path, edit
    ):
        """``ShardedIndex.load`` rejects a bad manifest exactly like
        ``load_index``: ``IndexIntegrityError`` with kind ``"manifest"``."""
        points = hamming.random_points(60, 16, rng=0)
        spec = IndexSpec(
            kind="raw", family="bit_sampling", family_params={"d": 16},
            n_tables=2, backend="packed", seed=0, shards=2,
        )
        ShardedIndex(points, spec).save(tmp_path / "srv")
        self._edit_sidecar(tmp_path / "srv", edit)
        with pytest.raises(IndexIntegrityError) as excinfo:
            ShardedIndex.load(tmp_path / "srv")
        assert excinfo.value.kind == "manifest"

    def test_integrity_error_contract(self):
        """It is a ValueError (callers catching the historic type keep
        working) and survives a pickle round trip intact."""
        error = IndexIntegrityError("bundle went bad", kind="checksum")
        assert isinstance(error, ValueError)
        revived = pickle.loads(pickle.dumps(error))
        assert type(revived) is IndexIntegrityError
        assert revived.kind == "checksum"
        assert str(revived) == "bundle went bad"


class TestRngState:
    def test_state_roundtrip_reproduces_stream(self):
        rng = np.random.default_rng(123)
        rng.integers(0, 10, size=5)  # advance past the seed point
        state = rng_state(rng)
        replay = rng_from_state(state)
        expected = rng.integers(0, 2**62, size=16)
        np.testing.assert_array_equal(
            replay.integers(0, 2**62, size=16), expected
        )

    def test_state_is_json_roundtrippable(self):
        state = rng_state(np.random.default_rng(0))
        revived = rng_from_state(json.loads(json.dumps(state)))
        assert isinstance(revived, np.random.Generator)

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown bit generator"):
            rng_from_state({"bit_generator": "nope", "state": {}})
