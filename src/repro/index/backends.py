"""Pluggable storage backends for :class:`~repro.index.lsh_index.DSHIndex`.

The Theorem 6.1 index needs one operation from its storage layer: map the
``(n, c)`` int64 hash components of a point to a bucket and retrieve buckets
in table order at query time.  Two interchangeable layouts implement it:

* :class:`DictBackend` — the reference layout: one ``dict[bytes, list[int]]``
  per table keyed by the exact serialized component row
  (:func:`~repro.core.family.rows_to_keys`).  Injective keys, simple code,
  Python-loop speed.  Single and batched queries share one probe routine so
  the two paths cannot drift apart.
* :class:`PackedBackend` — the throughput layout: component rows are mixed
  to uint64 fingerprints (:func:`~repro.core.family.rows_to_fingerprints`)
  and each table is stored CSR-style as a sorted unique-fingerprint array,
  an offsets array, and a point-index array grouped by fingerprint
  (``np.argsort``/``np.unique`` at build, ``np.searchsorted`` at probe).
  :meth:`~PackedBackend.batch_query` is vectorized end-to-end across queries
  *and* tables; per-query dedup preserves first-seen candidate order, so the
  results are element-for-element identical to :class:`DictBackend` (up to
  64-bit fingerprint collisions, see the collision bound documented on
  ``rows_to_fingerprints``).

Both backends produce identical candidate lists, candidate order, and
:class:`QueryStats`; ``tests/test_index_backends_parity.py`` enforces this
differentially across families and seeds.
"""

from __future__ import annotations

import pathlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.core.family import (
    as_components,
    rows_to_fingerprints,
    rows_to_keys,
)

__all__ = [
    "QueryStats",
    "CandidateResult",
    "BatchHits",
    "IndexBackend",
    "DictBackend",
    "PackedBackend",
    "make_backend",
    "budget_truncation",
    "first_seen_dedup",
    "clip_batch_hits",
    "segment_gather",
    "batch_results",
    "BACKENDS",
]


@dataclass
class QueryStats:
    """Instrumentation for one query.

    Attributes
    ----------
    retrieved:
        Total number of (point, table) hits — counts duplicates, i.e. the
        work the query performs.
    unique_candidates:
        Number of distinct data points retrieved.
    tables_probed:
        Tables inspected before termination (== L unless stopped early).
    truncated:
        Whether an early-termination candidate budget stopped the scan.
    degraded:
        Always ``False``: no query surface serves a partial answer.  Kept
        because the ``sharded-pool`` benchmark workload checks it and
        digests it with every result.
    """

    retrieved: int = 0
    unique_candidates: int = 0
    tables_probed: int = 0
    truncated: bool = False
    degraded: bool = False

    @property
    def duplicates(self) -> int:
        """Redundant retrievals — the waste Theorem 6.5 is about."""
        return self.retrieved - self.unique_candidates


class CandidateResult(NamedTuple):
    """Outcome of one raw candidate query: distinct candidate indices in
    first-seen order plus :class:`QueryStats`.

    A ``NamedTuple`` on purpose: it compares equal to — and unpacks like —
    the plain ``(candidates, stats)`` tuples the pre-registry API returned,
    so ``candidates, stats = index.query(q)`` and ``result.indices`` /
    ``result.stats`` are both valid spellings of the same object.
    """

    indices: list[int]
    stats: QueryStats


@dataclass(frozen=True)
class BatchHits:
    """All (point, table) hits for a batch of queries, with multiplicity.

    The bulk counterpart of :meth:`IndexBackend.query_hits`: the raw
    retrieval stream the Section 6 application layers consume — annulus
    search examines it in probe order until a proximity check passes,
    range reporting drains it and counts multiplicities.

    Attributes
    ----------
    hits:
        Flat point-index array, query-major; within a query, hits are in
        probe order (table by table, insertion order inside a bucket).
        Its integer dtype is the producer's:
        :meth:`IndexBackend.budgeted_hits` keeps the backend's stored id
        dtype (int32 for a packed index whose ids fit), while
        :meth:`IndexBackend.batch_query_hits` always widens to int64.
    offsets:
        Shape ``(n_queries + 1,)``; query ``i`` owns
        ``hits[offsets[i]:offsets[i + 1]]``.
    table_counts:
        Shape ``(n_queries, L)``: how many of query ``i``'s hits came from
        each table (after ``max_hits`` truncation), so consumers can
        recover the table of any hit position without storing a parallel
        table array.
    truncated:
        Shape ``(n_queries,)`` bool: whether the query's stream was cut by
        ``max_hits`` — i.e. exactly ``max_hits`` hits were gathered (a
        lazily-consuming caller cannot know whether more would have come,
        so reaching the cap *is* the truncation signal, matching the
        streaming single-query semantics).
    full_table_counts:
        ``None`` when the stream is unclipped (``table_counts`` already
        *are* the full counts).  When a producer clipped the stream
        (``max_hits`` here, or the ``max_retrieved`` clip of
        :meth:`IndexBackend.budgeted_hits`), this carries the **pre-clip**
        per-table retrieval counts for every table, so a downstream merge
        can apply table-granularity budget semantics on the counts the
        unclipped stream *would* have had — the contract that lets shards
        ship clipped hits while the merged
        :func:`budget_truncation` stays bit-identical to the unsharded
        index.
    """

    hits: np.ndarray
    offsets: np.ndarray
    table_counts: np.ndarray
    truncated: np.ndarray
    full_table_counts: np.ndarray | None = None

    @property
    def n_queries(self) -> int:
        """Number of query segments in this block."""
        return self.offsets.size - 1

    @property
    def pre_clip_table_counts(self) -> np.ndarray:
        """The full (pre-clip) per-table counts: ``full_table_counts`` when
        a clip recorded them, else ``table_counts`` (nothing was clipped)."""
        return (
            self.table_counts
            if self.full_table_counts is None
            else self.full_table_counts
        )

    def segment(self, i: int) -> np.ndarray:
        """Query ``i``'s hits in probe order (duplicates preserved)."""
        return self.hits[self.offsets[i] : self.offsets[i + 1]]

    def table_of(self, i: int, position: int) -> int:
        """Table number that produced hit ``position`` (0-based, within
        query ``i``'s segment)."""
        return int(
            np.searchsorted(
                np.cumsum(self.table_counts[i]), position, side="right"
            )
        )


def budget_truncation(
    counts: np.ndarray, n_tables: int, max_retrieved: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """THE Theorem 6.1 early-termination device, vectorized: given a
    ``(n_queries, L)`` per-table retrieval-count matrix, a query stops
    after the first table at which its cumulative count reaches
    ``max_retrieved``.  Returns ``(tables_probed, truncated)``, both
    ``(n_queries,)``.  Shared by :meth:`PackedBackend.batch_query` and the
    sharded merge (:mod:`repro.serving.sharded`) so the truncation
    semantics — which the parity suites hold bit-identical to the
    reference ``_scan`` — are defined exactly once."""
    n_queries = counts.shape[0]
    if max_retrieved is None:
        return (
            np.full(n_queries, n_tables, dtype=np.int64),
            np.zeros(n_queries, dtype=bool),
        )
    over = np.cumsum(counts, axis=1) >= max_retrieved
    truncated = over.any(axis=1)
    tables_probed = np.where(
        truncated, np.argmax(over, axis=1) + 1, n_tables
    )
    return tables_probed, truncated


def first_seen_dedup(
    segment: np.ndarray, stamp: np.ndarray, positions_all: np.ndarray
) -> list[int]:
    """First-seen dedup without sorting: stamp each point id with the
    position of its first occurrence in ``segment`` (reversed fancy-index
    write, so the earliest position wins), then keep hits whose own
    position carries the stamp.  O(len(segment)), and ``stamp`` — a
    caller-owned scratch array over the id space — needs no reset between
    calls: only just-stamped entries are ever read.  The companion of
    :func:`budget_truncation`, shared by the packed backend and the
    sharded merge."""
    if not segment.size:
        return []
    positions = positions_all[: segment.size]
    stamp[segment[::-1]] = positions[::-1]
    return segment[stamp[segment] == positions].tolist()


def segment_gather(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """THE variable-length gather: the slices
    ``values[starts[k] : starts[k] + lengths[k]]`` concatenated in order,
    as one fancy-index pass (no per-slice Python loop).  Keeps
    ``values``' dtype; the packed probe, the budget clip and the sharded
    merge all build their hit streams through it."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=values.dtype)
    ends = np.cumsum(lengths)
    gather = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - lengths, lengths)
        + np.repeat(np.asarray(starts, dtype=np.int64), lengths)
    )
    return values[gather]


def _table_clip(
    counts: np.ndarray, n_tables: int, max_retrieved: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The Theorem 6.1 budget as a mask over a ``(n_queries, L)`` count
    matrix: ``(included, truncated)``, where ``included[i, t]`` says
    whether query ``i`` probes table ``t`` under ``max_retrieved``."""
    tables_probed, truncated = budget_truncation(
        counts, n_tables, max_retrieved
    )
    included = np.arange(n_tables)[None, :] < tables_probed[:, None]
    return included, truncated


def batch_results(
    block: BatchHits,
    n_tables: int,
    n_points: int,
    max_retrieved: int | None,
) -> list[CandidateResult]:
    """Turn a budget-clipped, table-major hit stream into one
    :class:`CandidateResult` per query — the single result builder behind
    :meth:`PackedBackend.batch_query` and the sharded merge.

    ``block`` must already be clipped to ``max_retrieved`` at table
    granularity (each query's segment holds exactly the hits of the tables
    it probes), with the pre-clip per-table counts in
    ``pre_clip_table_counts``; those counts give ``tables_probed`` and
    ``truncated`` through :func:`budget_truncation`.  Hit ids must lie in
    ``[0, n_points)``; candidates keep first-seen order
    (:func:`first_seen_dedup`).
    """
    tables_probed, truncated = budget_truncation(
        block.pre_clip_table_counts, n_tables, max_retrieved
    )
    hits = np.asarray(block.hits)
    bounds = np.asarray(block.offsets, dtype=np.int64)
    lengths = np.diff(bounds)
    longest = int(lengths.max(initial=0))
    # The stamp scratch holds hit positions: keep the (possibly narrowed)
    # id dtype unless a segment is longer than that dtype can count.
    dtype = hits.dtype if longest <= np.iinfo(hits.dtype).max else np.int64
    stamp = np.empty(max(n_points, 1), dtype=dtype)
    positions = np.arange(longest, dtype=dtype)
    edges = bounds.tolist()
    results: list[CandidateResult] = []
    for i, (probed, cut) in enumerate(
        zip(tables_probed.tolist(), truncated.tolist())
    ):
        ordered = first_seen_dedup(
            hits[edges[i] : edges[i + 1]], stamp, positions
        )
        results.append(
            CandidateResult(
                ordered,
                QueryStats(
                    retrieved=edges[i + 1] - edges[i],
                    unique_candidates=len(ordered),
                    tables_probed=probed,
                    truncated=cut,
                ),
            )
        )
    return results


def clip_batch_hits(
    block: BatchHits, n_tables: int, max_retrieved: int | None
) -> BatchHits:
    """Apply the Theorem 6.1 table-granularity ``max_retrieved`` budget to
    an *unclipped* :class:`BatchHits` stream, keeping the pre-clip counts.

    The reference path of :meth:`IndexBackend.budgeted_hits` for backends
    without a budgeted gather (it gathers every hit, then clips), and the
    oracle the packed clip-before-gather version is held to.  The
    exactness-preserving device behind shard-local clipping in sharded
    serving: a query's merged scan stops after the first table where the
    *merged* cumulative count reaches the budget, and since every shard's
    own cumulative counts are bounded by the merged ones, the merged
    stopping table can never lie beyond the shard-local one.  Clipping each
    shard's stream at its own :func:`budget_truncation` table therefore
    discards only hits the merge could never use, while the recorded
    ``full_table_counts`` let the merge compute the exact merged stopping
    table and stats.  Within a query's segment hits are table-major, so the
    kept hits are a per-query prefix.

    ``block`` must be unclipped (``full_table_counts is None``); returns it
    unchanged when ``max_retrieved`` is ``None``.
    """
    if max_retrieved is None:
        return block
    if block.full_table_counts is not None:
        raise ValueError(
            "clip_batch_hits needs an unclipped stream; this block already "
            "carries full_table_counts"
        )
    full = np.asarray(block.table_counts, dtype=np.int64)
    included, truncated = _table_clip(full, n_tables, max_retrieved)
    clipped = np.where(included, full, 0)
    keep = clipped.sum(axis=1)
    offsets = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=offsets[1:])
    hits = np.asarray(block.hits)
    if int(offsets[-1]) != hits.size:
        hits = segment_gather(hits, block.offsets[:-1], keep)
    return BatchHits(
        hits=hits,
        offsets=offsets,
        table_counts=clipped,
        truncated=truncated,
        full_table_counts=full,
    )


class IndexBackend(ABC):
    """Storage layout behind a :class:`DSHIndex`.

    Component arrays flow in from the index, which owns the hash pairs: the
    backend never hashes points, it only buckets already-computed ``(n, c)``
    int64 components.  ``comps`` arguments are lists with one entry per
    table, each of shape ``(n_queries, c)``.
    """

    name: str = "abstract"

    # A storage object holds exactly one index's tables; attach() flips
    # this so a second owner cannot silently clobber the first build.
    _attached: bool = False

    def attach(self) -> "IndexBackend":
        """Claim this instance for one owning index.

        An :class:`IndexBackend` holds exactly one index's tables, so the
        owner (``DSHIndex``, or a loader reviving a saved index) must call
        this exactly once before using the instance; a second ``attach``
        raises instead of letting a later ``build`` clobber the first
        owner's data.  Returns ``self`` so construction chains.
        """
        if self._attached:
            raise ValueError(
                f"{type(self).__name__} instance is already attached to an "
                "index; pass the backend name or class to get a fresh "
                "instance"
            )
        self._attached = True
        return self

    @property
    def attached(self) -> bool:
        """Whether an index has claimed this instance via :meth:`attach`."""
        return self._attached

    @abstractmethod
    def build(self, tables: list[np.ndarray]) -> None:
        """Ingest the data-side components, one ``(n, c)`` array per table."""

    # -- persistence -----------------------------------------------------

    @abstractmethod
    def export_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the built tables to named arrays (the persistence
        payload).  Keys must be valid ``.npz`` member names; the inverse is
        :meth:`import_arrays`."""

    @abstractmethod
    def import_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore tables from an :meth:`export_arrays` payload.  Arrays
        may be read-only memmaps: backends must treat imported storage as
        immutable, which every query path already does."""

    @abstractmethod
    def bucket(self, table: int, components: np.ndarray) -> np.ndarray:
        """Point indices in ``table`` under one query's component row
        (shape ``(1, c)``), in insertion (= increasing point index) order,
        always as an **int64** array — backends that store narrowed ids
        internally must widen here so callers never see dtype drift."""

    @abstractmethod
    def bucket_sizes(self) -> list[int]:
        """All bucket sizes across tables (for load diagnostics)."""

    @abstractmethod
    def batch_query(
        self, comps: list[np.ndarray], max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Probe all tables for every query row; one :class:`CandidateResult`
        per query, candidates distinct and in first-seen order."""

    def budgeted_hits(
        self, comps: list[np.ndarray], max_retrieved: int | None
    ) -> BatchHits:
        """Hit streams for every query row, clipped at table granularity
        to the Theorem 6.1 ``max_retrieved`` budget, with the pre-clip
        per-table counts in ``full_table_counts`` (``None`` when unbudgeted)
        — the probe every budgeted table-granularity consumer shares: the
        packed :meth:`batch_query` and every shard of a sharded index.

        This reference version gathers every hit and then clips
        (:func:`clip_batch_hits`); :class:`PackedBackend` clips on the
        count matrix first, so no table past a query's stopping table is
        ever gathered."""
        return clip_batch_hits(
            self.batch_query_hits(comps), len(comps), max_retrieved
        )

    def _scan(
        self, buckets, max_retrieved: int | None
    ) -> CandidateResult:
        """THE reference probe routine (first-seen dedup + the Theorem 6.1
        early-termination budget) over a lazily-consumed iterable of
        buckets, one per table in table order.  Every non-vectorized query
        path funnels through here so the semantics cannot drift; the
        packed ``batch_query`` override is held to it differentially by
        the backend-parity suite."""
        stats = QueryStats()
        seen: set[int] = set()
        ordered: list[int] = []
        for bucket in buckets:
            stats.retrieved += len(bucket)
            for idx in bucket:
                idx = int(idx)
                if idx not in seen:
                    seen.add(idx)
                    ordered.append(idx)
            stats.tables_probed += 1
            if max_retrieved is not None and stats.retrieved >= max_retrieved:
                stats.truncated = True
                break
        stats.unique_candidates = len(ordered)
        return CandidateResult(ordered, stats)

    def query(
        self,
        comps: Iterable[np.ndarray],
        max_retrieved: int | None = None,
    ) -> CandidateResult:
        """Single-query probe.  ``comps`` may be any iterable of per-table
        ``(1, c)`` component rows and is consumed lazily, so a truncating
        budget also stops upstream hash evaluation (the caller can pass a
        generator that hashes table ``i`` on demand)."""
        return self._scan(
            (self.bucket(t, c) for t, c in enumerate(comps)), max_retrieved
        )

    def query_hits(self, comps: list[np.ndarray]) -> np.ndarray:
        """All (point, table) hits for one query as a flat int64 array in
        probe order, duplicates preserved."""
        parts = [
            np.asarray(self.bucket(t, c), dtype=np.int64)
            for t, c in enumerate(comps)
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def batch_query_hits(
        self, comps: list[np.ndarray], max_hits: int | None = None
    ) -> BatchHits:
        """Bulk hit streams for every query row: the batched counterpart of
        :meth:`query_hits`, feeding the application-layer ``batch_query``
        paths.

        Unlike :meth:`batch_query`'s ``max_retrieved`` (the Theorem 6.1
        device, which truncates at *table* granularity), ``max_hits`` cuts
        each query's stream at exactly ``max_hits`` hits — the semantics of
        a consumer that counts every hit it examines and stops mid-bucket
        (annulus search under its ``8L`` budget).

        This reference implementation walks buckets per query in Python;
        :class:`PackedBackend` overrides it with one batched
        ``searchsorted`` + gather.  Under ``max_hits`` the pre-clip
        per-table counts are recorded in ``full_table_counts`` (every
        bucket is still *counted*, only the gather stops at the cap).
        """
        n_tables = len(comps)
        n_queries = comps[0].shape[0] if n_tables else 0
        table_counts = np.zeros((n_queries, n_tables), dtype=np.int64)
        full_counts = (
            None
            if max_hits is None
            else np.zeros((n_queries, n_tables), dtype=np.int64)
        )
        truncated = np.zeros(n_queries, dtype=bool)
        parts: list[np.ndarray] = []
        lengths = np.zeros(n_queries, dtype=np.int64)
        for i in range(n_queries):
            gathered = 0
            for t in range(n_tables):
                bucket = np.asarray(
                    self.bucket(t, comps[t][i : i + 1]), dtype=np.int64
                )
                if full_counts is not None:
                    full_counts[i, t] = bucket.size
                if max_hits is not None and gathered + bucket.size > max_hits:
                    bucket = bucket[: max_hits - gathered]
                table_counts[i, t] = bucket.size
                gathered += bucket.size
                if bucket.size:
                    parts.append(bucket)
            lengths[i] = gathered
            truncated[i] = max_hits is not None and gathered == max_hits
        offsets = np.zeros(n_queries + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        hits = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        return BatchHits(
            hits=hits,
            offsets=offsets,
            table_counts=table_counts,
            truncated=truncated,
            full_table_counts=full_counts,
        )


class DictBackend(IndexBackend):
    """Reference layout: ``dict[bytes, list[int]]`` per table."""

    name = "dict"

    def __init__(self) -> None:
        self._tables: list[dict[bytes, list[int]]] = []

    def build(self, tables: list[np.ndarray]) -> None:
        """Bucket each table's component rows by exact serialized key."""
        self._tables = []
        for comps in tables:
            table: dict[bytes, list[int]] = {}
            for idx, key in enumerate(rows_to_keys(comps)):
                table.setdefault(key, []).append(idx)
            self._tables.append(table)

    def bucket(self, table: int, components: np.ndarray) -> np.ndarray:
        """Exact-key lookup; always returns an int64 id array."""
        key = rows_to_keys(components)[0]
        return np.asarray(self._tables[table].get(key, []), dtype=np.int64)

    def bucket_sizes(self) -> list[int]:
        """All bucket sizes across tables (for load diagnostics)."""
        return [len(bucket) for table in self._tables for bucket in table.values()]

    def batch_query(
        self, comps: list[np.ndarray], max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Per-query reference ``_scan`` over precomputed key rows."""
        per_table_keys = [rows_to_keys(c) for c in comps]
        n_queries = len(per_table_keys[0]) if per_table_keys else 0
        return [
            self._scan(
                (
                    table.get(keys[i], ())
                    for keys, table in zip(per_table_keys, self._tables)
                ),
                max_retrieved,
            )
            for i in range(n_queries)
        ]

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the per-table dicts: concatenated key bytes (fixed width
        per table), bucket sizes in iteration (= first-insertion) order,
        and the concatenated bucket id lists.  Iteration order is part of
        the payload, so a round trip rebuilds *identical* dicts."""
        key_parts: list[bytes] = []
        id_parts: list[np.ndarray] = []
        bucket_counts: list[int] = []
        table_buckets = np.zeros(len(self._tables), dtype=np.int64)
        key_widths = np.zeros(len(self._tables), dtype=np.int64)
        for t, table in enumerate(self._tables):
            table_buckets[t] = len(table)
            for key, ids in table.items():
                key_widths[t] = len(key)
                key_parts.append(key)
                bucket_counts.append(len(ids))
                id_parts.append(np.asarray(ids, dtype=np.int64))
        key_bytes = (
            np.frombuffer(b"".join(key_parts), dtype=np.uint8)
            if key_parts
            else np.empty(0, dtype=np.uint8)
        )
        return {
            "key_bytes": key_bytes,
            "key_widths": key_widths,
            "table_buckets": table_buckets,
            "bucket_counts": np.asarray(bucket_counts, dtype=np.int64),
            "ids": (
                np.concatenate(id_parts)
                if id_parts
                else np.empty(0, dtype=np.int64)
            ),
        }

    def import_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Rebuild identical per-table dicts from the flattened payload."""
        key_bytes = np.asarray(arrays["key_bytes"], dtype=np.uint8).tobytes()
        key_widths = np.asarray(arrays["key_widths"], dtype=np.int64)
        table_buckets = np.asarray(arrays["table_buckets"], dtype=np.int64)
        bucket_counts = np.asarray(arrays["bucket_counts"], dtype=np.int64)
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        self._tables = []
        bucket = 0
        key_pos = 0
        id_pos = 0
        for t in range(table_buckets.size):
            table: dict[bytes, list[int]] = {}
            width = int(key_widths[t])
            for _ in range(int(table_buckets[t])):
                key = key_bytes[key_pos : key_pos + width]
                key_pos += width
                count = int(bucket_counts[bucket])
                bucket += 1
                table[key] = [int(i) for i in ids[id_pos : id_pos + count]]
                id_pos += count
            self._tables.append(table)


def _query_fingerprints(comps: list[np.ndarray]) -> np.ndarray:
    """Every table's query fingerprints as an ``(L, n_queries)`` uint64
    matrix, with one ``rows_to_fingerprints`` call per distinct component
    width instead of one per table.

    Fingerprints are row-independent, so mixing the row-stacked
    ``(L_w * nq, c)`` block of the ``L_w`` tables of width ``c`` and
    reshaping the result to ``(L_w, nq)`` gives each table's fingerprints
    exactly.  The tables of one family share a width; a mixture's tables
    may not, hence the grouping."""
    blocks = [as_components(c) for c in comps]
    n_queries = blocks[0].shape[0]
    by_width: dict[int, list[int]] = {}
    for t, block in enumerate(blocks):
        by_width.setdefault(block.shape[1], []).append(t)
    qfps = np.empty((len(blocks), n_queries), dtype=np.uint64)
    for tables in by_width.values():
        stacked = np.concatenate([blocks[t] for t in tables])
        qfps[tables] = rows_to_fingerprints(stacked).reshape(
            len(tables), n_queries
        )
    return qfps


class PackedBackend(IndexBackend):
    """CSR-style layout over uint64 fingerprints, fully vectorized.

    Per table ``t`` the build stores

    * ``_unique[t]`` — sorted distinct fingerprints, shape ``(B_t,)``;
    * ``_offsets[t]`` — bucket boundaries into the point-index array,
      shape ``(B_t + 1,)``;
    * a slice of the shared ``_ids`` array holding point indices grouped by
      fingerprint (stable argsort, so within a bucket indices are in
      insertion order, matching :class:`DictBackend`).
    """

    name = "packed"

    def __init__(self) -> None:
        self._unique: list[np.ndarray] = []
        self._offsets: list[np.ndarray] = []
        self._base: np.ndarray = np.empty(0, dtype=np.int64)
        self._ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._n_points = 0

    def build(self, tables: list[np.ndarray]) -> None:
        """Fingerprint, sort, and pack each table into the CSR layout."""
        self._n_points = tables[0].shape[0] if tables else 0
        # Narrow point ids to int32 when they fit — halves the memory
        # traffic of the query-time gather and dedup passes.
        ids_dtype = (
            np.int32 if self._n_points <= np.iinfo(np.int32).max else np.int64
        )
        self._unique = []
        self._offsets = []
        base = []
        id_parts = []
        position = 0
        for comps in tables:
            fps = rows_to_fingerprints(comps)
            order = np.argsort(fps, kind="stable").astype(ids_dtype)
            sorted_fps = fps[order]
            unique, starts = np.unique(sorted_fps, return_index=True)
            self._unique.append(unique)
            self._offsets.append(
                np.append(starts, sorted_fps.size).astype(np.int64)
            )
            id_parts.append(order)
            base.append(position)
            position += order.size
        self._base = np.asarray(base, dtype=np.int64)
        self._ids = (
            np.concatenate(id_parts) if id_parts else np.empty(0, dtype=ids_dtype)
        )

    def bucket(self, table: int, components: np.ndarray) -> np.ndarray:
        """Fingerprint ``searchsorted`` lookup; widens ids to int64."""
        unique = self._unique[table]
        if unique.size == 0:
            return np.empty(0, dtype=np.int64)
        fp = rows_to_fingerprints(components)[0]
        pos = int(np.searchsorted(unique, fp))
        if pos >= unique.size or unique[pos] != fp:
            return np.empty(0, dtype=np.int64)
        offsets = self._offsets[table]
        lo = self._base[table] + offsets[pos]
        hi = self._base[table] + offsets[pos + 1]
        # _ids may be narrowed to int32; the bucket() contract is int64, so
        # widen here rather than leak a build-dependent dtype to callers.
        return np.asarray(self._ids[lo:hi], dtype=np.int64)

    def bucket_sizes(self) -> list[int]:
        """All bucket sizes across tables (for load diagnostics)."""
        return [
            int(size)
            for offsets in self._offsets
            for size in np.diff(offsets)
        ]

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The CSR arrays, verbatim: per-table ``unique``/``offsets``
        concatenated (sizes recorded so import can re-split), the shared
        ``ids``/``base`` arrays as-is.  ``ids`` keeps its build-time dtype
        (int32 when point ids fit), so the file is as small as the live
        index."""
        n_tables = len(self._unique)
        return {
            "unique": (
                np.concatenate(self._unique)
                if n_tables
                else np.empty(0, dtype=np.uint64)
            ),
            "unique_sizes": np.asarray(
                [u.size for u in self._unique], dtype=np.int64
            ),
            "offsets": (
                np.concatenate(self._offsets)
                if n_tables
                else np.empty(0, dtype=np.int64)
            ),
            "base": self._base,
            "ids": self._ids,
            "n_points": np.asarray([self._n_points], dtype=np.int64),
        }

    def import_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Rebind the CSR arrays from a payload without copying: per-table
        views are slices of the (possibly memory-mapped) concatenated
        arrays, so loading is O(L) header work regardless of ``n``."""
        sizes = np.asarray(arrays["unique_sizes"], dtype=np.int64)
        unique = arrays["unique"]
        offsets = arrays["offsets"]
        self._unique = (
            list(np.split(unique, np.cumsum(sizes)[:-1]))
            if sizes.size
            else []
        )
        self._offsets = (
            list(np.split(offsets, np.cumsum(sizes + 1)[:-1]))
            if sizes.size
            else []
        )
        self._base = arrays["base"]
        self._ids = arrays["ids"]
        self._n_points = int(np.asarray(arrays["n_points"])[0])

    def _lookup(
        self, comps: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve every (table, query) bucket in one ``searchsorted`` per
        table: returns ``(starts, counts)``, both shape ``(L, n_queries)``,
        giving each bucket's slice of the shared ``_ids`` array.  The
        query fingerprints come from :func:`_query_fingerprints`, one
        mixing pass per component width rather than one per table."""
        qfps = _query_fingerprints(comps)
        n_tables, n_queries = qfps.shape
        starts = np.zeros((n_tables, n_queries), dtype=np.int64)
        counts = np.zeros((n_tables, n_queries), dtype=np.int64)
        for t in range(n_tables):
            unique = self._unique[t]
            if unique.size == 0:
                continue
            offsets = self._offsets[t]
            pos = np.searchsorted(unique, qfps[t])
            pos_c = np.minimum(pos, unique.size - 1)
            found = unique[pos_c] == qfps[t]
            lo = offsets[pos_c]
            starts[t] = np.where(found, lo + self._base[t], 0)
            counts[t] = np.where(found, offsets[pos_c + 1] - lo, 0)
        return starts, counts

    def budgeted_hits(
        self, comps: list[np.ndarray], max_retrieved: int | None
    ) -> BatchHits:
        """Clip before the gather: one lookup, the budget clip on the count
        matrix, then one gather of the included buckets only, in the
        stored (possibly int32) id dtype."""
        starts, counts = self._lookup(comps)
        full = counts.T
        included, truncated = _table_clip(full, len(comps), max_retrieved)
        kept = np.where(included, full, 0)
        offsets = np.zeros(full.shape[0] + 1, dtype=np.int64)
        np.cumsum(kept.sum(axis=1), out=offsets[1:])
        # Query-major so each query's hits are contiguous and table-major.
        return BatchHits(
            hits=segment_gather(self._ids, starts.T.ravel(), kept.ravel()),
            offsets=offsets,
            table_counts=kept,
            truncated=truncated,
            full_table_counts=None if max_retrieved is None else full,
        )

    def batch_query(
        self, comps: list[np.ndarray], max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Vectorized probe: :meth:`budgeted_hits`, then
        :func:`batch_results`."""
        return batch_results(
            self.budgeted_hits(comps, max_retrieved),
            len(comps),
            self._n_points,
            max_retrieved,
        )

    def batch_query_hits(
        self, comps: list[np.ndarray], max_hits: int | None = None
    ) -> BatchHits:
        """Vectorized bulk hit streams: batched ``searchsorted`` over all
        (table, query) buckets, exact per-hit ``max_hits`` clipping computed
        on the count matrix (so clipped tails are never even gathered), and
        one flat gather for every query's stream."""
        starts, counts = self._lookup(comps)
        n_queries = counts.shape[1]
        if max_hits is None:
            allowed = counts
            truncated = np.zeros(n_queries, dtype=bool)
            full_counts = None
        else:
            full_counts = counts.T.copy()
            # Hits remaining in each query's budget when table t begins:
            # clip each bucket to it, cutting the stream mid-bucket at
            # exactly max_hits hits.
            before = np.cumsum(counts, axis=0) - counts
            allowed = np.minimum(
                counts, np.clip(max_hits - before, 0, None)
            )
            truncated = allowed.sum(axis=0) == max_hits
        lengths = allowed.sum(axis=0)
        hits = segment_gather(
            self._ids, starts.T.ravel(), allowed.T.ravel()
        )
        offsets = np.zeros(n_queries + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return BatchHits(
            hits=np.asarray(hits, dtype=np.int64),
            offsets=offsets,
            table_counts=allowed.T.copy(),
            truncated=truncated,
            full_table_counts=full_counts,
        )


BACKENDS: dict[str, type[IndexBackend]] = {
    DictBackend.name: DictBackend,
    PackedBackend.name: PackedBackend,
}


def make_backend(spec: str | IndexBackend | type[IndexBackend]) -> IndexBackend:
    """Resolve a backend spec: a name (``"dict"``/``"packed"``), an
    :class:`IndexBackend` subclass, or a ready instance."""
    if isinstance(spec, IndexBackend):
        return spec
    if isinstance(spec, type) and issubclass(spec, IndexBackend):
        return spec()
    if isinstance(spec, str):
        try:
            return BACKENDS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown index backend {spec!r}; available: {sorted(BACKENDS)}"
            ) from None
    raise TypeError(f"backend must be a name, class, or instance, got {spec!r}")
