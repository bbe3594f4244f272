"""Sharded serving of the Theorem 6.1 index.

The index is embarrassingly parallel across data partitions: each of the
``L`` tables is an independent repetition, so splitting the point set into
``S`` contiguous shards yields ``S`` independent indexes whose buckets
partition the unsharded index's buckets.  Because every shard samples the
*same* ``L`` hash pairs (same spec seed), the merged candidate stream —
table by table, shards in ascending-offset order — is element-for-element
identical to the unsharded stream: within a bucket, insertion order is
increasing point index, and contiguous shards keep global indices
increasing across the shard concatenation.  :class:`ShardedIndex` performs
that merge exactly, including the Theorem 6.1 early-termination budget
(applied to the *merged* per-table counts) and first-seen dedup order, so
sharded and unsharded indexes are observably identical
(``tests/test_oracle.py`` checks built and loaded ones differentially).

Shards are served in-process on the caller's thread: a built index holds
its shards as live ``DSHIndex`` objects, and :meth:`ShardedIndex.load`
opens every shard file in the calling process (memory-mapped by
default).  Every shard uses the packed layout, so a query block runs
through the same :func:`~repro.index.backends.packed_probe` as an
unsharded packed index, with the shards as its parts: each wave of tables
is hashed and fingerprinted once (all shards share the pairs) for the rows
still under their budget, each shard looks up its buckets, the Theorem 6.1
``max_retrieved`` clip runs on the summed per-table counts, and only the
buckets it includes are gathered before one interleave into probe order.

The shards are probed one after another, not fanned out to worker
processes: on the 4-shard, 64-query-block benchmark shape a 2-process
pool was slower than this path in every measured run on 2-core hosts.
Load-time integrity checks (``ServingOptions.verify``) and
:meth:`ShardedIndex.health` guard the shard files;
:class:`~repro.serving.server.AsyncIndexServer` serves a loaded sharded
index like any other snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, cast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api builds us)
    from repro.api import IndexSpec

import numpy as np

from repro.index.backends import (
    CandidateResult,
    PackedBackend,
    batch_results,
    packed_probe,
)
from repro.index.lsh_index import (
    DSHIndex,
    _check_budget,
    _check_query_block,
    _check_single_query,
)
from repro.index.persistence import (
    FORMAT_VERSION,
    IndexIntegrityError,
)
from repro.serving.options import ServingOptions

__all__ = [
    "ShardedIndex",
    "check_manifest_coherence",
    "shard_bounds",
]


def shard_bounds(n_points: int, shards: int) -> np.ndarray:
    """Contiguous shard boundaries: ``shards + 1`` offsets with shard
    sizes differing by at most one (``np.array_split`` convention), every
    shard non-empty."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if n_points < shards:
        raise ValueError(
            f"cannot split {n_points} points into {shards} non-empty shards"
        )
    base, extra = divmod(int(n_points), int(shards))
    sizes = np.full(shards, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])


def check_manifest_coherence(
    manifest: dict[str, Any], json_path: str | pathlib.Path
) -> list[str]:
    """Validate a sharded manifest's internal coherence; returns the
    shard file names.

    Checks that the shard list matches the spec's declared shard count,
    that ``bounds`` has ``shards + 1`` entries, starts at zero, and is
    strictly increasing (every shard non-empty).  Incoherence means the
    manifest and shard files skewed — a partial deploy or a hand-edited
    manifest — and raises
    :class:`~repro.index.persistence.IndexIntegrityError` with
    ``kind="manifest"``.
    """
    if manifest.get("layout") != "sharded":
        raise IndexIntegrityError(
            f"{json_path!s} is not a sharded index manifest",
            kind="manifest",
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise IndexIntegrityError(
            f"{json_path!s}: manifest has no shard list", kind="manifest"
        )
    declared = manifest.get("spec", {}).get("shards")
    if declared is not None and len(shards) != int(declared):
        raise IndexIntegrityError(
            f"{json_path!s}: manifest lists {len(shards)} shard file(s) "
            f"but the spec declares shards={declared} — manifest/shard "
            "skew",
            kind="manifest",
        )
    bounds = manifest.get("bounds")
    if not isinstance(bounds, list) or len(bounds) != len(shards) + 1:
        raise IndexIntegrityError(
            f"{json_path!s}: manifest bounds must have "
            f"{len(shards) + 1} offsets, got "
            f"{len(bounds) if isinstance(bounds, list) else bounds!r}",
            kind="manifest",
        )
    if int(bounds[0]) != 0 or any(
        int(hi) <= int(lo) for lo, hi in zip(bounds[:-1], bounds[1:])
    ):
        raise IndexIntegrityError(
            f"{json_path!s}: manifest bounds must start at 0 and be "
            f"strictly increasing, got {bounds}",
            kind="manifest",
        )
    return [str(name) for name in shards]


def _probe_bundle(path: str, verify: str) -> str | None:
    """Check one saved bundle on disk without reviving it: its array file
    must exist, and :func:`repro.api.verify_saved_index` runs at
    ``verify``.  Returns ``None`` when healthy, else the error as
    ``"Type: message"``; a missing or damaged bundle never raises."""
    from repro.api import index_paths, verify_saved_index

    try:
        # Stat first: a deleted bundle fails even at verify="off".
        os.stat(index_paths(path)[0])
        verify_saved_index(path, verify=verify)
    except (OSError, ValueError) as exc:
        # IndexIntegrityError is a ValueError;
        # FileNotFoundError is an OSError.
        return f"{type(exc).__name__}: {exc}"
    return None


def _check_sharded_spec(spec: IndexSpec) -> None:
    """What every :class:`ShardedIndex`, built or loaded, needs from its
    spec: the raw kind, a fixed seed (identical hash pairs in every
    shard) and the packed layout (the shards are :func:`packed_probe`
    parts)."""
    if spec.kind != "raw":
        raise ValueError(
            f"ShardedIndex requires kind='raw', got {spec.kind!r}"
        )
    if spec.seed is None:
        raise ValueError(
            "ShardedIndex needs a spec with a fixed seed so every "
            "shard samples identical hash pairs"
        )
    if spec.backend != "packed":
        raise ValueError(
            f"ShardedIndex serves packed shards only, got "
            f"backend={spec.backend!r}"
        )


class ShardedIndex:
    """``S`` contiguous shards of one raw-kind :class:`IndexSpec`, served
    as a single :class:`~repro.index.queryable.Queryable`.

    Build via a spec with ``shards > 1`` (``spec.build(points)`` /
    :func:`repro.api.build_index` return one automatically) — the spec's
    fixed seed guarantees every shard samples identical hash pairs, which
    is what makes the merge exact.  ``save``/``load`` round the shards
    through per-shard zero-copy files; a loaded index memory-maps them
    and serves in-process, exactly like a built one.

    Parameters
    ----------
    points:
        Data set, shape ``(n, d)``; shard ``s`` owns the contiguous row
        range ``bounds[s]:bounds[s + 1]``.
    spec:
        A validated :class:`~repro.api.IndexSpec` with ``kind="raw"``,
        ``backend="packed"``, ``shards >= 1``, and a fixed seed.
    build_workers:
        Threads for building shards concurrently (hash kernels are
        NumPy-bound); ``None`` builds serially.
    """

    def __init__(
        self,
        points: np.ndarray,
        spec: IndexSpec,
        *,
        build_workers: int | None = None,
    ) -> None:
        _check_sharded_spec(spec)
        points = np.atleast_2d(np.asarray(points))
        self.spec = spec
        self._bounds = shard_bounds(points.shape[0], spec.shards)
        self._dim = int(points.shape[1])
        shard_spec = dataclasses.replace(spec, shards=1)

        def build_one(s: int) -> DSHIndex:
            return shard_spec.build(
                points[self._bounds[s] : self._bounds[s + 1]]
            )

        if build_workers is not None and build_workers > 1:
            with ThreadPoolExecutor(max_workers=build_workers) as pool:
                self._shards = list(pool.map(build_one, range(spec.shards)))
        else:
            self._shards = [build_one(s) for s in range(spec.shards)]
        #: Shard files of a loaded index; ``None`` for in-memory builds.
        self._paths: list[str] | None = None
        self._options = ServingOptions()

    # -- introspection ---------------------------------------------------

    @property
    def options(self) -> ServingOptions:
        """The :class:`ServingOptions` this index serves under.

        For in-memory builds this is the defaults; for :meth:`load` it is
        the resolved load-time configuration.
        """
        return self._options

    @property
    def n_points(self) -> int:
        """Total number of indexed points across shards."""
        return int(self._bounds[-1])

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed point set."""
        return self._dim

    @property
    def n_tables(self) -> int:
        """Repetition count ``L`` (identical in every shard)."""
        return self.spec.n_tables

    @property
    def n_shards(self) -> int:
        """Number of data shards."""
        return self._bounds.size - 1

    @property
    def backend(self) -> str:
        """Name of the per-shard storage backend."""
        return self.spec.backend

    @property
    def bounds(self) -> np.ndarray:
        """Copy of the ``(S + 1,)`` contiguous shard boundary offsets."""
        return self._bounds.copy()

    @property
    def last_transport(self) -> dict[str, int]:
        """Fixed record kept for the ``sharded-pool`` benchmark workload,
        which still reads it: no bytes cross a process boundary
        (``pipe_bytes`` and ``shm_bytes`` are 0) and every request probes
        each shard once (``tasks`` is the shard count)."""
        return {"pipe_bytes": 0, "shm_bytes": 0, "tasks": self.n_shards}

    @property
    def last_health(self) -> dict[str, int]:
        """Fixed record kept for the ``sharded-pool`` benchmark workload,
        which still reads it: in-process serving never retries a shard or
        respawns a worker, so ``retries`` and ``respawns`` are 0."""
        return {"retries": 0, "respawns": 0}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards={self.n_shards}, "
            f"L={self.n_tables}, backend={self.backend!r}, "
            f"n_points={self.n_points}, d={self._dim})"
        )

    # -- querying --------------------------------------------------------

    def batch_query(
        self, queries: np.ndarray, max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Candidate retrieval for a query block: one :func:`packed_probe`
        over the shards, which hashes and fingerprints each wave once for
        every shard and clips the budget on their summed counts —
        element-for-element identical to the unsharded index (global ids,
        first-seen dedup order, stats)."""
        queries = _check_query_block(queries, self._dim)
        max_retrieved = _check_budget(max_retrieved)
        parts = [
            (cast(PackedBackend, shard._backend), offset)
            for shard, offset in zip(self._shards, self._bounds[:-1].tolist())
        ]
        comps = self._shards[0]._query_components(queries)
        return batch_results(
            packed_probe(parts, comps, max_retrieved=max_retrieved),
            self.n_tables, self.n_points, max_retrieved,
        )

    def query(
        self, query: np.ndarray, max_retrieved: int | None = None
    ) -> CandidateResult:
        """Single-query spelling of :meth:`batch_query`."""
        queries = _check_single_query(query, self._dim)
        return self.batch_query(queries, max_retrieved)[0]

    # -- health ----------------------------------------------------------

    def health(self, *, verify: str | None = None) -> dict[str, Any]:
        """Active health probe: validate every shard file on disk; never
        raises for an unhealthy shard (the JSON-able report carries the
        errors).

        Each shard's array bundle must exist, and
        :func:`repro.api.verify_saved_index` runs at the requested
        ``verify`` level (default: the level the index was loaded with).
        In-memory builds have no files and report their live shards as
        healthy.  The top-level ``"ok"`` is the conjunction of every
        shard check.
        """
        from repro.index.persistence import _check_verify_mode

        level = self._options.verify if verify is None else verify
        _check_verify_mode(level)
        report: dict[str, Any] = {
            "mode": "in-process",
            "verify": level,
            "ok": True,
            "shards": [],
        }
        if self._paths is None:
            report["shards"] = [
                {"shard": s, "ok": True} for s in range(self.n_shards)
            ]
            return report
        for s, path in enumerate(self._paths):
            entry: dict[str, Any] = {"shard": s, "path": path, "ok": True}
            error = _probe_bundle(path, level)
            if error is not None:
                entry["ok"] = False
                entry["error"] = error
                report["ok"] = False
            report["shards"].append(entry)
        return report

    # -- persistence -----------------------------------------------------

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist as ``<path>.json`` (manifest) + one zero-copy file pair
        per shard (``<path>.shard<i>.npz/.json``); every shard's sidecar
        carries per-member CRC-32 integrity records (see
        :func:`repro.api.save_index`).  Returns the manifest path."""
        from repro.api import index_paths, save_index

        _, json_path = index_paths(path)
        base = json_path.with_suffix("")
        json_path.parent.mkdir(parents=True, exist_ok=True)
        shard_names = []
        for s, shard in enumerate(self._shards):
            name = f"{base.name}.shard{s}"
            save_index(shard, base.with_name(name))
            shard_names.append(name)
        manifest = {
            "format": FORMAT_VERSION,
            "layout": "sharded",
            "spec": self.spec.to_dict(),
            "bounds": [int(b) for b in self._bounds],
            "dim": self._dim,
            "shards": shard_names,
        }
        json_path.write_text(json.dumps(manifest, indent=2))
        return json_path

    @classmethod
    def load(
        cls,
        path: str | pathlib.Path,
        *,
        options: ServingOptions | None = None,
    ) -> "ShardedIndex":
        """Revive a :meth:`save` layout, every shard opened in the calling
        process.

        Serving configuration arrives as one frozen
        :class:`~repro.serving.options.ServingOptions` (``options=``,
        defaults when ``None``).  ``options.mmap`` memory-maps the shard
        arrays (default) instead of reading them, and ``options.verify``
        sets the integrity level every shard bundle is held to at load
        time: ``"lazy"`` (default, O(1) structural checks), ``"eager"``
        (full per-member re-checksum), ``"off"``.  ``options.workers`` is
        validated but selects nothing (see
        :class:`~repro.serving.options.ServingOptions`).

        Raises :class:`repro.index.persistence.IndexIntegrityError` when
        the manifest has the wrong format, layout or shard list
        (``kind="manifest"``, as :func:`repro.api.load_index` does) or a
        shard bundle fails the requested integrity checks at load time.
        """
        from repro.api import (
            IndexSpec,
            _check_sidecar_format,
            index_paths,
            load_index,
        )

        opts = ServingOptions() if options is None else options
        _, json_path = index_paths(path)
        manifest = json.loads(json_path.read_text())
        _check_sidecar_format(manifest, json_path)
        shard_names = check_manifest_coherence(manifest, json_path)
        self = object.__new__(cls)
        self.spec = IndexSpec.from_dict(manifest["spec"])
        _check_sharded_spec(self.spec)
        self._bounds = np.asarray(manifest["bounds"], dtype=np.int64)
        self._dim = int(manifest["dim"])
        self._paths = [str(json_path.parent / name) for name in shard_names]
        self._options = opts
        shard_opts = ServingOptions(mmap=opts.mmap, verify=opts.verify)
        self._shards = [load_index(p, options=shard_opts) for p in self._paths]
        return self

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """No-op, kept for the ``sharded-pool`` benchmark workload and for
        callers that treat every index as closeable: shards are plain
        in-process indexes, released when the index is collected."""

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
