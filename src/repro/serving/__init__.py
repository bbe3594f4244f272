"""Serving-layer machinery on top of the index layer.

* :mod:`repro.serving.sharded` — :class:`~repro.serving.sharded.ShardedIndex`:
  contiguous data-partition sharding of the Theorem 6.1 index with exact
  candidate-stream merging, persisted and integrity-checked shard files,
  and a shard-file health probe.  Shards are always served in-process.
* :mod:`repro.serving.server` — :class:`~repro.serving.server.AsyncIndexServer`:
  the asyncio front door that coalesces concurrent single-query traffic
  into micro-batches over replicated snapshots, with backpressure
  shedding, health-based replica routing, and zero-downtime hot swaps
  (:func:`~repro.serving.server.serve_in_thread` for a synchronous
  :class:`~repro.index.queryable.Queryable` handle).
* :mod:`repro.serving.options` — the frozen
  :class:`~repro.serving.options.ServingOptions` bag every serving
  entry point (`load_index`, `ShardedIndex.load`, `AsyncIndexServer`)
  accepts, with dict/JSON round-trip alongside ``IndexSpec``.

Persistence itself (save/load, zero-copy mmap cold starts, integrity
checksums) lives one layer down: :func:`repro.api.save_index` /
:func:`repro.api.load_index` and :mod:`repro.index.persistence`.
"""

from repro.serving.options import ServingOptions
from repro.serving.server import (
    AsyncIndexServer,
    ServedResult,
    ServerHandle,
    ServerOverloadedError,
    ServeStats,
    serve_in_thread,
)
from repro.serving.sharded import (
    ShardedIndex,
    check_manifest_coherence,
    shard_bounds,
)

__all__ = [
    "ShardedIndex",
    "ServingOptions",
    "AsyncIndexServer",
    "ServerHandle",
    "ServerOverloadedError",
    "ServeStats",
    "ServedResult",
    "serve_in_thread",
    "check_manifest_coherence",
    "shard_bounds",
]
