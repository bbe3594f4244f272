"""Multi-core sharded serving of the Theorem 6.1 index.

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
(``tests/test_sharded_parity.py`` enforces this differentially).

Two serving modes share the merge:

* **in-process** — shards are live ``DSHIndex`` objects; queries are
  hashed once (all shards share the pairs) and each shard's packed arrays
  are probed serially.  This is the correctness/reference mode.
* **process pool** — after :meth:`ShardedIndex.save`, ``load(path,
  options=ServingOptions(workers=W))`` starts a persistent
  ``ProcessPoolExecutor``; each
  ``batch_query`` chunks the query block across ``(shard, chunk)`` tasks
  so every worker stays busy, and every worker memory-maps the shard
  files it touches on first use (cached by ``(path, mtime_ns, size)``, so
  a shard file hot-swapped in place is picked up on the next request).
  No table data is ever pickled, and the OS page cache shares the mapped
  arrays across workers.

Each pool worker applies the exactness-preserving table-granularity
``max_retrieved`` clip (:func:`~repro.index.backends.clip_batch_hits`)
before returning, so only hits the merge can actually use cross the
executor pipe; the pre-clip ``full_table_counts`` ride along and the
merged :func:`~repro.index.backends.budget_truncation` runs on the *full*
merged counts, keeping results bit-identical to the unsharded index.
The clipped :class:`~repro.index.backends.BatchHits` is returned as is,
pickled through the pipe.

Fault tolerance
---------------
Pool serving survives the failures long-lived serving actually sees:

* **worker loss** — a worker segfault/OOM-kill breaks the executor
  (``BrokenProcessPool``); ``batch_query`` respawns it and retries only
  the unfinished ``(shard, chunk)`` tasks, with exponential backoff,
  at most ``ServingOptions.max_retries`` retry rounds, and an optional
  per-request ``timeout=`` deadline.  Recovery accounting for the most
  recent request lands in :attr:`ShardedIndex.last_health` next to
  :attr:`ShardedIndex.last_transport`.
* **shard loss / corruption** — deterministic shard errors (missing
  files, :class:`~repro.index.persistence.IndexIntegrityError` from the
  ``verify=`` integrity modes) are never retried; they either raise
  :class:`PoolRecoveryError` or — under ``on_shard_failure="degrade"`` —
  drop the shard and serve the surviving shards' *exact* merge, with
  every result's ``stats.degraded`` flag set and the failed-shard list
  in ``last_health``.  :meth:`ShardedIndex.health` probes shards and
  workers on demand without mutating anything.

Fault-injection hooks live in :mod:`repro.serving.faults`;
``tests/test_serving_faults.py`` drives all of the above.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time
import weakref
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api builds us)
    from repro.api import IndexSpec

import numpy as np

from repro.index.backends import (
    BatchHits,
    CandidateResult,
    _table_clip,
    batch_results,
    clip_batch_hits,
    segment_gather,
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
from repro.serving.faults import FaultInjected, fault_point
from repro.serving.options import ServingOptions

__all__ = [
    "ShardedIndex",
    "PoolRecoveryError",
    "check_manifest_coherence",
    "shard_bounds",
]

#: Smallest query-chunk a pool ``batch_query`` will split off — below this
#: the per-task overhead (submit, hash, pickling) dominates.
MIN_CHUNK_QUERIES = 16

class PoolRecoveryError(RuntimeError):
    """Pool serving could not produce a complete answer: one or more
    shards kept failing after bounded retries (or every shard failed,
    which no mode can degrade around).  The message names each failed
    shard and its final error."""


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


# Per-process cache of memory-mapped shard indexes, keyed by path and
# validated against the shard file's (mtime_ns, size) on every request: a
# pool worker loads each shard it is handed once (O(1) file opens, no
# table bytes over the pipe), reuses it while the file is unchanged, and
# transparently reloads when the file is re-saved in place (hot swap) —
# a long-lived pool never answers from a stale mmap.
_SHARD_CACHE: dict[str, tuple[tuple[int, int], DSHIndex]] = {}


def _shard_signature(shard_path: str) -> tuple[int, int]:
    """Freshness signature of a shard's array bundle on disk."""
    from repro.api import index_paths

    npz_path, _ = index_paths(shard_path)
    stat = os.stat(npz_path)
    return (stat.st_mtime_ns, stat.st_size)


def _cached_shard(
    shard_path: str, mmap: bool, verify: str = "lazy"
) -> DSHIndex:
    from repro.api import load_index

    signature = _shard_signature(shard_path)
    cached = _SHARD_CACHE.get(shard_path)
    if cached is not None and cached[0] == signature:
        return cached[1]
    index = load_index(
        shard_path, options=ServingOptions(mmap=mmap, verify=verify)
    )
    _SHARD_CACHE[shard_path] = (signature, index)
    return index


def _pool_batch_hits(
    shard_path: str,
    queries: np.ndarray,
    mmap: bool,
    max_retrieved: int | None = None,
    verify: str = "lazy",
) -> BatchHits:
    """Pool worker: resolve one shard's hit streams for a query chunk and
    budget-clip them shard-locally before they are pickled back.
    Shard (re)loads verify the bundle at the ``verify`` level the index
    was loaded with, so a hot-swapped-in corrupted file is rejected here
    instead of silently served."""
    fault_point("pool_worker")
    index = _cached_shard(shard_path, mmap, verify)
    return clip_batch_hits(
        index.batch_query_hits(queries), index.n_tables, max_retrieved
    )


def _probe_worker(delay: float = 0.0) -> int:
    """Pool-worker liveness probe: linger briefly so concurrent probes
    spread across the pool, then report this worker's pid."""
    if delay > 0:
        time.sleep(delay)
    return os.getpid()


def _chunk_bounds(n_queries: int, n_shards: int, workers: int) -> np.ndarray:
    """Split a query block so the pool sees roughly two tasks per worker
    (tasks = chunks x shards), never below :data:`MIN_CHUNK_QUERIES`
    queries per chunk — one-future-per-shard leaves cores idle whenever
    ``workers > shards``."""
    target = max(1, -(-2 * workers // max(n_shards, 1)))
    chunks = min(target, max(1, n_queries // MIN_CHUNK_QUERIES))
    return shard_bounds(n_queries, chunks)


def _merge_blocks(
    blocks: list[list[BatchHits]],
    offsets: list[int],
    n_tables: int,
    n_points: int,
    max_retrieved: int | None,
    degraded: bool = False,
) -> list[CandidateResult]:
    """Merge per-shard hit streams into globally-correct candidate results.

    ``blocks[s]`` holds shard ``s``'s per-chunk blocks in ascending query
    order (one block when the shard answered the whole query block) and
    ``offsets[s]`` its global starting index — a degraded merge over the
    surviving shards passes only theirs, and stays exact over the points
    those shards own.

    One vectorised interleave rebuilds the unsharded probe order —
    table-major, shards in ascending offset order within a table — as a
    single :func:`~repro.index.backends.segment_gather`, and
    :func:`~repro.index.backends.batch_results` builds the results.  The
    budget runs on the **pre-clip** merged per-table counts, so
    worker-side clipping never changes the merged stopping table,
    retrieval stats, or candidate stream: a clipped block only omits hits
    past its shard-local stopping table, which is never before the merged
    one.  ``degraded=True`` stamps every result's ``stats.degraded``.
    """
    # Post-clip counts locate hits inside each block's (possibly clipped)
    # stream; pre-clip counts drive the budget and the stats.
    clipped = np.stack(
        [np.concatenate([b.table_counts for b in chunks]) for chunks in blocks]
    )  # (S, nq, L)
    full = np.stack(
        [
            np.concatenate([b.pre_clip_table_counts for b in chunks])
            for chunks in blocks
        ]
    ).sum(axis=0)  # (nq, L)
    included, truncated = _table_clip(full, n_tables, max_retrieved)
    lengths = np.where(included, clipped, 0)

    # Every block's hits, lifted to global ids, in one flat array.  A
    # block's stream is exactly its (query, table) segments in order, so
    # the flat array is laid out (shard, query, table) like ``clipped``.
    flat = np.empty(
        sum(b.hits.size for chunks in blocks for b in chunks), dtype=np.int64
    )
    pos = 0
    for offset, chunks in zip(offsets, blocks):
        for b in chunks:
            np.add(b.hits, offset, out=flat[pos : pos + b.hits.size])
            pos += b.hits.size
    sizes = clipped.ravel()
    starts = (np.cumsum(sizes) - sizes).reshape(clipped.shape)

    kept = lengths.sum(axis=0)  # (nq, L)
    merged_offsets = np.zeros(kept.shape[0] + 1, dtype=np.int64)
    np.cumsum(kept.sum(axis=1), out=merged_offsets[1:])
    merged = BatchHits(
        hits=segment_gather(
            flat,
            starts.transpose(1, 2, 0).ravel(),
            lengths.transpose(1, 2, 0).ravel(),
        ),
        offsets=merged_offsets,
        table_counts=kept,
        truncated=truncated,
        full_table_counts=full,
    )
    return batch_results(merged, n_tables, n_points, max_retrieved, degraded)


class ShardedIndex:
    """``S`` contiguous shards of one raw-kind :class:`IndexSpec`, served
    as a single :class:`~repro.index.queryable.Queryable`.

    Build via a spec with ``shards > 1`` (``spec.build(points)`` /
    :func:`repro.api.build_index` return one automatically) — the spec's
    fixed seed guarantees every shard samples identical hash pairs, which
    is what makes the merge exact.  ``save``/``load`` round the shards
    through per-shard zero-copy files; ``load(path,
    options=ServingOptions(workers=W))`` switches to process-pool serving
    (worker-side budget clipping, query-block chunking, crash recovery
    — see the module docstring).

    Parameters
    ----------
    points:
        Data set, shape ``(n, d)``; shard ``s`` owns the contiguous row
        range ``bounds[s]:bounds[s + 1]``.
    spec:
        A validated :class:`~repro.api.IndexSpec` with ``kind="raw"``,
        ``shards >= 1``, and a fixed seed.
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
        if spec.kind != "raw":
            raise ValueError(
                f"ShardedIndex requires kind='raw', got {spec.kind!r}"
            )
        if spec.seed is None:
            raise ValueError(
                "ShardedIndex needs a spec with a fixed seed so every "
                "shard samples identical hash pairs"
            )
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
        self._init_serving(None, ServingOptions())

    def _init_serving(
        self, paths: list[str] | None, options: ServingOptions
    ) -> None:
        """Serving state shared by :meth:`__init__` and :meth:`load`:
        the shard files (``None`` for in-memory builds), the options, and
        no pool yet."""
        self._paths = paths
        self._options = options
        self._pool: ProcessPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None
        #: Transport accounting for the most recent pool ``batch_query``:
        #: ``pipe_bytes`` (array payload of the result blocks returned
        #: through the executor pipe), ``tasks`` and ``chunks``
        #: submitted, and ``shm_bytes``, always 0 (perfbench's
        #: ``sharded-pool`` workload still reads it).  ``None`` before
        #: any pool query.
        self.last_transport: dict[str, int] | None = None
        #: Recovery accounting for the most recent pool ``batch_query``:
        #: ``mode``, ``retries`` (task re-submissions), ``respawns``
        #: (executor replacements), ``failed_shards`` (per-shard error
        #: records), ``degraded``.  ``None`` before any pool query; also
        #: populated when the request raises.
        self.last_health: dict[str, Any] | None = None

    # -- introspection ---------------------------------------------------

    @property
    def options(self) -> ServingOptions:
        """The :class:`ServingOptions` this index serves under.

        For in-memory builds this is the defaults; for :meth:`load` it is
        the resolved load-time configuration.  ``options.timeout`` is the
        default per-request deadline applied when :meth:`batch_query` is
        called without ``timeout=``.
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

    def __repr__(self) -> str:
        if self._pool is not None:
            mode = f"pool={self._options.workers}"
        elif self._shards is not None:
            mode = "in-process"
        else:
            mode = "closed"
        return (
            f"{type(self).__name__}(shards={self.n_shards}, "
            f"L={self.n_tables}, backend={self.backend!r}, "
            f"n_points={self.n_points}, d={self._dim}, {mode})"
        )

    # -- querying --------------------------------------------------------

    def _shard_blocks(self, queries: np.ndarray) -> list[list[BatchHits]]:
        """In-process per-shard hit streams (unclipped, one chunk each):
        all shards share the hash pairs, so hash the query block once and
        probe each shard's backend directly."""
        comps = [
            pair.hash_query(queries) for pair in self._shards[0]._pairs
        ]
        return [
            [shard._backend.batch_query_hits(comps)]
            for shard in self._shards
        ]

    def _start_pool(self) -> None:
        """Start the worker pool.  A ``weakref.finalize`` hook shuts it
        down without blocking the collector if the index is garbage
        collected unclosed."""
        self._pool = ProcessPoolExecutor(max_workers=self._options.workers)
        self._finalizer = weakref.finalize(
            self, self._pool.shutdown, wait=False, cancel_futures=True
        )

    def _pool_blocks(
        self,
        queries: np.ndarray,
        max_retrieved: int | None,
        timeout: float | None,
    ) -> tuple[list[list[BatchHits]], list[int], bool]:
        """Fan ``(shard, query-chunk)`` tasks over the worker pool with
        crash recovery; returns ``(blocks, offsets, degraded)`` — each
        surviving shard's per-chunk blocks plus that shard's global
        offset — and records transport + recovery accounting.

        Worker loss (``BrokenProcessPool``) respawns the executor and
        retries only the unfinished tasks, with exponential backoff and
        at most ``options.max_retries`` retry rounds.  Deterministic shard
        errors (integrity failures, missing files) are never retried.
        ``timeout`` bounds the whole request: on expiry unfinished futures
        are cancelled (a straggler already running finishes in its worker
        and its result is dropped) and builtin :class:`TimeoutError` is
        raised.  Shards whose retries are exhausted raise
        :class:`PoolRecoveryError`, or — in ``on_shard_failure="degrade"``
        mode — are dropped from the merge and reported in
        :attr:`last_health`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        chunk_bounds = _chunk_bounds(
            queries.shape[0], self.n_shards, self._options.workers or 1
        )
        chunks = list(zip(chunk_bounds[:-1], chunk_bounds[1:]))
        paths = self._paths or []
        pending = [
            (s, c) for c in range(len(chunks)) for s in range(len(paths))
        ]
        resolved: dict[tuple[int, int], BatchHits] = {}
        failed: dict[int, str] = {}
        health: dict[str, Any] = {
            "mode": "pool",
            "retries": 0,
            "respawns": 0,
            "failed_shards": [],
            "degraded": False,
        }
        self.last_health = health
        submitted = 0
        pipe_bytes = 0
        attempts = 0
        while pending:
            pool = self._pool
            if pool is None:
                raise PoolRecoveryError(
                    "worker pool is gone (index closed mid-request?)"
                )
            futures: list[tuple[tuple[int, int], Future[BatchHits]]] = []
            broken = False
            try:
                for s, c in pending:
                    lo, hi = chunks[c]
                    futures.append(
                        ((s, c), pool.submit(
                            _pool_batch_hits,
                            paths[s],
                            queries[lo:hi],
                            self._options.mmap,
                            max_retrieved,
                            self._options.verify,
                        ))
                    )
            except BrokenExecutor:
                broken = True
            submitted += len(futures)
            # Tasks never submitted (executor broke mid-fan-out) go
            # straight back on the retry list.
            retry: list[tuple[int, int]] = list(pending[len(futures):])
            for key, future in futures:
                s = key[0]
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                try:
                    if remaining is not None and remaining <= 0:
                        raise _FuturesTimeout()
                    block = future.result(timeout=remaining)
                except _FuturesTimeout:
                    for _, straggler in futures:
                        straggler.cancel()
                    raise TimeoutError(
                        f"batch_query deadline ({timeout:g}s) exceeded "
                        "with pool tasks outstanding"
                    ) from None
                except BrokenExecutor:
                    broken = True
                    retry.append(key)
                    continue
                except (IndexIntegrityError, FileNotFoundError) as exc:
                    # Deterministic shard failure: the file itself is bad
                    # or gone; retrying cannot help.
                    failed.setdefault(s, f"{type(exc).__name__}: {exc}")
                    continue
                except FaultInjected:
                    retry.append(key)
                    continue
                pipe_bytes += block.nbytes
                resolved[key] = block
            if broken:
                health["respawns"] += 1
                self.close()
                self._start_pool()
            pending = [key for key in retry if key[0] not in failed]
            if not pending:
                break
            attempts += 1
            if attempts > self._options.max_retries:
                for s, _ in pending:
                    failed.setdefault(
                        s,
                        f"retries exhausted after "
                        f"{self._options.max_retries} retry round(s) "
                        "of worker failures",
                    )
                break
            health["retries"] += len(pending)
            delay = self._options.retry_backoff_s * (2 ** (attempts - 1))
            if deadline is not None and time.monotonic() + delay >= deadline:
                raise TimeoutError(
                    f"batch_query deadline ({timeout:g}s) exceeded "
                    "while backing off before a retry round"
                )
            time.sleep(delay)
        health["failed_shards"] = [
            {"shard": s, "path": paths[s], "error": failed[s]}
            for s in sorted(failed)
        ]
        if failed:
            summary = "; ".join(
                f"shard {s} ({os.path.basename(paths[s])}): {failed[s]}"
                for s in sorted(failed)
            )
            if len(failed) == len(paths):
                raise PoolRecoveryError(f"every shard failed: {summary}")
            if self._options.on_shard_failure == "raise":
                raise PoolRecoveryError(
                    f"{len(failed)}/{len(paths)} shard(s) failed after "
                    f"recovery attempts: {summary} (load with "
                    "on_shard_failure='degrade' to serve surviving "
                    "shards)"
                )
            health["degraded"] = True
        surviving = [s for s in range(len(paths)) if s not in failed]
        self.last_transport = {
            "pipe_bytes": int(pipe_bytes),
            "shm_bytes": 0,
            "tasks": submitted,
            "chunks": len(chunks),
        }
        return (
            [[resolved[(s, c)] for c in range(len(chunks))] for s in surviving],
            [int(self._bounds[s]) for s in surviving],
            health["degraded"],
        )

    def batch_query(
        self,
        queries: np.ndarray,
        max_retrieved: int | None = None,
        timeout: float | None = None,
    ) -> list[CandidateResult]:
        """Candidate retrieval for a query block, fanned out across shards
        and merged exactly (global ids, first-seen dedup order, summed
        stats) — element-for-element identical to the unsharded index.

        Pool serving transparently recovers from worker loss (executor
        respawn + bounded same-request retries; see the module
        docstring); ``timeout`` bounds one request end to end, raising
        builtin :class:`TimeoutError` on expiry (``None`` falls back to
        the load-time ``options.timeout`` default).  Once a shard's
        retries are exhausted the load-time ``on_shard_failure`` mode
        decides:
        ``"raise"`` raises :class:`PoolRecoveryError`; ``"degrade"``
        returns the surviving shards' exact merge with every result's
        ``stats.degraded`` set and the failure detailed in
        :attr:`last_health`.
        """
        queries = _check_query_block(queries, self._dim)
        max_retrieved = _check_budget(max_retrieved)
        if self._shards is None and self._pool is None:
            raise ValueError(
                "this ShardedIndex has been closed; load it again to serve"
            )
        if timeout is None:
            timeout = self._options.timeout
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if queries.shape[0] == 0:
            return []
        if self._pool is not None:
            blocks, offsets, degraded = self._pool_blocks(
                queries, max_retrieved, timeout
            )
            return _merge_blocks(
                blocks, offsets, self.n_tables, self.n_points,
                max_retrieved, degraded=degraded,
            )
        return _merge_blocks(
            self._shard_blocks(queries),
            [int(b) for b in self._bounds[:-1]],
            self.n_tables, self.n_points, max_retrieved,
        )

    def query(
        self,
        query: np.ndarray,
        max_retrieved: int | None = None,
        timeout: float | None = None,
    ) -> CandidateResult:
        """Single-query spelling of :meth:`batch_query`.

        Like :meth:`batch_query`, raises :class:`PoolRecoveryError` when
        pool recovery is exhausted (under ``on_shard_failure="raise"``)
        and :class:`TimeoutError` past a ``timeout=`` deadline.
        """
        queries = _check_single_query(query, self._dim)
        return self.batch_query(queries, max_retrieved, timeout)[0]

    # -- health ----------------------------------------------------------

    def health(self, *, verify: str | None = None) -> dict[str, Any]:
        """Active health probe: validate every shard on disk and
        round-trip the worker pool; never raises for unhealthy
        components (the JSON-able report carries the errors).

        Shard checks stat each bundle's freshness signature and run
        :func:`repro.api.verify_saved_index` at the requested ``verify``
        level (default: the level the index was loaded with; in-memory
        builds have no files and report their live shards as healthy).
        Pool checks submit one probe per worker — each lingers briefly
        so concurrent probes spread across the pool — and report the
        distinct worker pids that answered.  The top-level ``"ok"`` is
        the conjunction of every component check.
        """
        from repro.api import verify_saved_index
        from repro.index.persistence import _check_verify_mode

        level = self._options.verify if verify is None else verify
        _check_verify_mode(level)
        if self._pool is not None:
            mode = "pool"
        elif self._shards is not None:
            mode = "in-process"
        else:
            mode = "closed"
        report: dict[str, Any] = {
            "mode": mode,
            "verify": level,
            "ok": mode != "closed",
            "shards": [],
        }
        if self._paths is not None:
            for s, path in enumerate(self._paths):
                entry: dict[str, Any] = {"shard": s, "path": path, "ok": True}
                try:
                    entry["signature"] = list(_shard_signature(path))
                    verify_saved_index(path, verify=level)
                except (OSError, ValueError) as exc:
                    # IndexIntegrityError is a ValueError;
                    # FileNotFoundError is an OSError.
                    entry["ok"] = False
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                    report["ok"] = False
                report["shards"].append(entry)
        else:
            report["shards"] = [
                {"shard": s, "ok": True} for s in range(self.n_shards)
            ]
        if self._pool is not None:
            workers = self._options.workers or 1
            try:
                probes = [
                    self._pool.submit(_probe_worker, 0.05)
                    for _ in range(workers)
                ]
                pids = sorted({f.result(timeout=30.0) for f in probes})
                report["workers"] = {
                    "requested": workers,
                    "alive_pids": pids,
                    "ok": True,
                }
            except (BrokenExecutor, _FuturesTimeout) as exc:
                report["workers"] = {
                    "requested": workers,
                    "alive_pids": [],
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
                report["ok"] = False
        return report

    # -- persistence -----------------------------------------------------

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist as ``<path>.json`` (manifest) + one zero-copy file pair
        per shard (``<path>.shard<i>.npz/.json``); every shard's sidecar
        carries per-member CRC-32 integrity records (see
        :func:`repro.api.save_index`).  Returns the manifest path."""
        from repro.api import index_paths, save_index

        if self._shards is None:
            raise ValueError(
                "this ShardedIndex serves already-saved shard files; "
                "copy those instead of re-saving"
            )
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
        """Revive a :meth:`save` layout.

        Serving configuration arrives as one frozen
        :class:`~repro.serving.options.ServingOptions` (``options=``,
        defaults when ``None``).  ``options.workers=None`` loads every
        shard in-process (memory-mapped when ``options.mmap`` is true).
        ``options.workers=W`` starts a persistent ``W``-process pool
        instead and defers shard opening to the workers — the parent
        never touches table data, so cold start is the manifest read plus
        pool spawn.  The pool is
        shut down by :meth:`close` (idempotent), by the context-manager
        exit, or — as a safety net — by a ``weakref.finalize`` hook when
        the index is garbage collected, so forgotten handles cannot leak
        worker processes.

        ``options.verify`` sets the integrity level every shard bundle
        is held to, at load time and on every worker-side (re)load:
        ``"lazy"`` (default, O(1) structural checks), ``"eager"`` (full
        per-member re-checksum), ``"off"``.  ``options.on_shard_failure``
        selects what a pool ``batch_query`` does once a shard's retries
        are exhausted: ``"raise"`` (default) propagates
        :class:`PoolRecoveryError`, ``"degrade"`` serves the surviving
        shards' exact merge with results flagged ``degraded`` (see
        :meth:`batch_query`).  ``options.timeout`` becomes the default
        per-request deadline; ``options.max_retries`` /
        ``options.retry_backoff_s`` set the crash-recovery budget.

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
            verify_saved_index,
        )

        opts = ServingOptions() if options is None else options
        _, json_path = index_paths(path)
        manifest = json.loads(json_path.read_text())
        _check_sidecar_format(manifest, json_path)
        shard_names = check_manifest_coherence(manifest, json_path)
        self = object.__new__(cls)
        self.spec = IndexSpec.from_dict(manifest["spec"])
        self._bounds = np.asarray(manifest["bounds"], dtype=np.int64)
        self._dim = int(manifest["dim"])
        paths = [str(json_path.parent / name) for name in shard_names]
        self._init_serving(paths, opts)
        # Fail now, not inside a pool worker's first query: a partial
        # deploy that missed a shard file should be caught at load time
        # with a clearly-attributed error.
        missing = [
            str(part)
            for shard in paths
            for part in index_paths(shard)
            if not part.exists()
        ]
        if missing:
            raise FileNotFoundError(
                f"manifest {json_path} names missing shard file(s): "
                f"{missing}"
            )
        if opts.workers is None:
            shard_opts = ServingOptions(mmap=opts.mmap, verify=opts.verify)
            self._shards = [
                load_index(p, options=shard_opts) for p in paths
            ]
        else:
            if opts.verify != "off":
                # A damaged shard should be rejected here with a
                # clearly-attributed IndexIntegrityError, not inside a
                # pool worker's first query (workers still re-verify on
                # every (re)load, covering hot swaps).
                for p in paths:
                    verify_saved_index(p, verify=opts.verify)
            self._shards = None
            self._start_pool()
        return self

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool, waiting for its processes to exit.
        Idempotent; a no-op for in-process serving."""
        pool, self._pool = self._pool, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
