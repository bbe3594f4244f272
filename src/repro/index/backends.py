"""Pluggable storage backends for :class:`~repro.index.lsh_index.DSHIndex`.

The Theorem 6.1 index needs one operation from its storage layer: map the
``(n, c)`` int64 hash components of a point to a bucket and retrieve buckets
in table order at query time.  Two interchangeable layouts implement it:

* :class:`DictBackend` — the reference layout: one ``dict[bytes, list[int]]``
  per table keyed by the exact serialized component row
  (:func:`~repro.core.family.rows_to_keys`).  Injective keys, simple code,
  Python-loop speed.  Its probes are the reference walk: each query row's
  tables in order, one bucket lookup at a time, hashing a table only when
  the row reaches it.
* :class:`PackedBackend` — the throughput layout: component rows are mixed
  to uint64 fingerprints (:func:`~repro.core.family.rows_to_fingerprints`)
  and each table is stored CSR-style as a sorted unique-fingerprint array,
  an offsets array, and a point-index array grouped by fingerprint
  (``np.argsort``/``np.unique`` at build, ``np.searchsorted`` at probe).
  Every probe runs through :func:`packed_probe`, vectorized across queries
  *and* tables; per-query dedup preserves first-seen candidate order, so the
  results are element-for-element identical to :class:`DictBackend` (up to
  64-bit fingerprint collisions, see the collision bound documented on
  ``rows_to_fingerprints``).

A single query is a one-row block on either layout.  Both backends produce
identical candidate lists, candidate order, and :class:`QueryStats`;
``tests/test_oracle.py`` checks both against the :class:`DictBackend` walk
on generated cases.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, overload

import numpy as np

from repro.core.family import (
    as_components,
    rows_to_fingerprints,
    rows_to_keys,
)
from repro.families.filters import FilterStack

__all__ = [
    "QueryStats",
    "CandidateResult",
    "BatchHits",
    "QueryComponents",
    "IndexBackend",
    "DictBackend",
    "PackedBackend",
    "packed_probe",
    "make_backend",
    "budget_truncation",
    "first_seen_dedup",
    "clip_batch_hits",
    "segment_gather",
    "batch_results",
    "BACKENDS",
]

#: Tables per wave of a capped probe (:func:`packed_probe` under
#: ``max_retrieved`` or ``max_hits``): each wave hashes, fingerprints and
#: looks up only the rows still below their cap.  Not an option; picked
#: from a measured sweep (CHANGES.md).
WAVE = 4


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

    The raw retrieval stream the Section 6 application layers consume —
    annulus search examines it in probe order until a proximity check
    passes, range reporting drains it and counts multiplicities.

    Attributes
    ----------
    hits:
        Flat point-index array, query-major; within a query, hits are in
        probe order (table by table, insertion order inside a bucket).
        Its integer dtype is the producer's: :func:`packed_probe` over
        one part keeps the backend's stored id dtype (int32 for a packed
        index whose ids fit), while :meth:`IndexBackend.batch_query_hits`
        always widens to int64.
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
        so reaching the cap *is* the truncation signal).
    full_table_counts:
        ``None`` when the stream is unclipped (``table_counts`` already
        *are* the full counts).  When a producer cut the stream, this
        carries the **pre-cut** count of every table the query *reached*
        and ``0`` for every table past it, which is never looked up.  One
        rule for both cuts: table ``t`` is reached when the query's stream
        held fewer hits than the cap as ``t`` began.  Under a ``max_hits``
        cap of 0 no table is reached; under ``max_retrieved`` the first
        table always is (a budget of 0 probes one table), and since that
        clip keeps reached tables whole these counts equal
        ``table_counts``.  :func:`batch_results` derives each query's
        ``tables_probed`` and ``truncated`` from them.
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
    ``(n_queries,)``.  Shared by the reference clip
    (:func:`clip_batch_hits`) and the result builder
    (:func:`batch_results`); ``tests/test_oracle.py`` holds it and the
    packed probe's wave retirement bit-identical to the reference walk."""
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
    :func:`budget_truncation` in :func:`batch_results`."""
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
    ``values``' dtype; the packed probe and :func:`clip_batch_hits` build
    their hit streams through it."""
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


def batch_results(
    block: BatchHits,
    n_tables: int,
    n_points: int,
    max_retrieved: int | None,
) -> list[CandidateResult]:
    """Turn a budget-clipped, table-major hit stream into one
    :class:`CandidateResult` per query — the single result builder behind
    :meth:`PackedBackend.batch_query` and the sharded index's
    ``batch_query``.

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
    an *unclipped* :class:`BatchHits` stream, keeping the pre-cut counts of
    the tables each query reaches (:class:`BatchHits`).

    The gather-everything-then-clip reference that :func:`packed_probe`'s
    clip-before-gather is held to.  Within a query's segment hits are
    table-major, so the kept hits are a per-query prefix.

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
    tables_probed, truncated = budget_truncation(
        full, n_tables, max_retrieved
    )
    included = np.arange(n_tables)[None, :] < tables_probed[:, None]
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
        full_table_counts=clipped,
    )


class QueryComponents(Sequence[np.ndarray]):
    """One query block's per-table hash components, hashed on demand.

    ``hashes[t]`` is table ``t``'s query-side hash (a
    :meth:`~repro.core.family.HashPair.hash_query`): it maps an ``(m, d)``
    block to its ``(m, c)`` components, row by row.  Indexing (and so
    iteration) hashes table ``t``'s whole block once and caches it;
    :meth:`rows` hashes only some rows of a table, so a probe that retires
    rows early (:func:`packed_probe` under a cap, or the
    :class:`DictBackend` walk) never spends hash work on the (query, table)
    pairs it does not reach.  :meth:`tables` hashes a range of tables for
    some rows in one call: with a ``stack`` (the index's
    :class:`~repro.families.filters.FilterStack`, when every table hashes
    with Gaussian filters) that is one stacked product for the whole
    range, else one call per table.
    """

    def __init__(
        self,
        hashes: Sequence[Callable[[np.ndarray], np.ndarray]],
        queries: np.ndarray,
        stack: FilterStack | None,
    ) -> None:
        self._hashes = list(hashes)
        self._queries = queries
        self._stack = stack
        self._tables: list[np.ndarray | None] = [None] * len(self._hashes)

    @property
    def n_queries(self) -> int:
        """Rows in the query block (no hashing)."""
        return int(self._queries.shape[0])

    def __len__(self) -> int:
        return len(self._hashes)

    @overload
    def __getitem__(self, t: int) -> np.ndarray: ...

    @overload
    def __getitem__(self, t: slice) -> list[np.ndarray]: ...

    def __getitem__(self, t: int | slice) -> np.ndarray | list[np.ndarray]:
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        block = self._tables[t]
        if block is None:
            block = self._tables[t] = self._hashes[t](self._queries)
        return block

    def rows(self, t: int, rows: np.ndarray) -> np.ndarray:
        """Table ``t``'s components of the given rows only: sliced from the
        cache when the whole table is hashed, else hashed without caching."""
        block = self._tables[t]
        if block is not None:
            return block[rows]
        return self._hashes[t](self._queries[rows])

    def tables(
        self, first: int, last: int, rows: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """Tables ``first .. last - 1``'s components of the given rows
        (``None``: every row), uncached: one stacked product over the range
        when the block has a stack, else :meth:`rows` (or indexing) table
        by table."""
        if self._stack is not None:
            queries = self._queries if rows is None else self._queries[rows]
            return self._stack.components(queries, first, last)
        if rows is None:
            return [self[t] for t in range(first, last)]
        return [self.rows(t, rows) for t in range(first, last)]


def _block_shape(comps: Sequence[np.ndarray]) -> tuple[int, int]:
    """``(L, n_queries)`` of a component sequence, hashing nothing when it
    is a :class:`QueryComponents`."""
    if isinstance(comps, QueryComponents):
        return len(comps), comps.n_queries
    return len(comps), (as_components(comps[0]).shape[0] if len(comps) else 0)


def _table_rows(
    comps: Sequence[np.ndarray], t: int, rows: np.ndarray
) -> np.ndarray:
    """Table ``t``'s components of the given rows only; a
    :class:`QueryComponents` hashes just those rows unless the whole table
    is already cached."""
    if isinstance(comps, QueryComponents):
        return comps.rows(t, rows)
    return as_components(comps[t])[rows]


class IndexBackend(ABC):
    """Storage layout behind a :class:`DSHIndex`.

    Component arrays flow in from the index, which owns the hash pairs: the
    backend never hashes points, it only buckets already-computed ``(n, c)``
    int64 components.  ``comps`` arguments are sequences with one entry
    per table, each of shape ``(n_queries, c)``: a plain list, or a
    :class:`QueryComponents` that hashes a table when it is first read.
    Every probe takes a block; a single query is a one-row block.
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
    def bucket_sizes(self) -> list[int]:
        """All bucket sizes across tables (for load diagnostics)."""

    @abstractmethod
    def batch_query(
        self, comps: Sequence[np.ndarray], max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Probe the tables for every query row under the Theorem 6.1
        ``max_retrieved`` budget (a row stops after the table where its
        cumulative count reaches it); one :class:`CandidateResult` per
        query, candidates distinct and in first-seen order."""

    @abstractmethod
    def batch_query_hits(
        self, comps: Sequence[np.ndarray], max_hits: int | None = None
    ) -> BatchHits:
        """Bulk int64 hit streams for every query row (duplicates
        preserved, probe order), feeding the application layers.

        Unlike :meth:`batch_query`'s ``max_retrieved`` (the Theorem 6.1
        device, which truncates at *table* granularity), ``max_hits`` cuts
        each query's stream at exactly ``max_hits`` hits — the semantics of
        a consumer that counts every hit it examines and stops mid-bucket
        (annulus search under its ``8L`` budget).  Under ``max_hits`` the
        pre-cut counts of the tables each query reached are recorded in
        ``full_table_counts`` (see :class:`BatchHits`).
        """


class DictBackend(IndexBackend):
    """Reference layout: ``dict[bytes, list[int]]`` per table.

    Its probes are THE reference walk the packed probe is held to: for
    each query row, the tables in order, one :meth:`bucket` lookup at a
    time, stopping the row at its budget or cap.  A row's table is hashed
    only when the walk reaches it (:func:`_table_rows`).
    """

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
        """Point indices in ``table`` under one query's component row
        (shape ``(1, c)``), in insertion (= increasing point index) order,
        as an int64 array."""
        key = rows_to_keys(components)[0]
        return np.asarray(self._tables[table].get(key, []), dtype=np.int64)

    def bucket_sizes(self) -> list[int]:
        """All bucket sizes across tables (for load diagnostics)."""
        return [len(bucket) for table in self._tables for bucket in table.values()]

    def _row_buckets(
        self, comps: Sequence[np.ndarray], i: int
    ) -> Iterable[np.ndarray]:
        """Row ``i``'s buckets in table order, each table hashed and looked
        up only when the consumer asks for it."""
        row = np.array([i])
        for t in range(len(comps)):
            yield self.bucket(t, _table_rows(comps, t, row))

    @staticmethod
    def _scan(
        buckets: Iterable[np.ndarray], max_retrieved: int | None
    ) -> CandidateResult:
        """THE reference probe of one row (first-seen dedup + the Theorem
        6.1 early-termination budget) over a lazily-consumed iterable of
        buckets in table order."""
        stats = QueryStats()
        seen: set[int] = set()
        ordered: list[int] = []
        for bucket in buckets:
            stats.retrieved += len(bucket)
            for idx in bucket.tolist():
                if idx not in seen:
                    seen.add(idx)
                    ordered.append(idx)
            stats.tables_probed += 1
            if max_retrieved is not None and stats.retrieved >= max_retrieved:
                stats.truncated = True
                break
        stats.unique_candidates = len(ordered)
        return CandidateResult(ordered, stats)

    def batch_query(
        self, comps: Sequence[np.ndarray], max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """:meth:`_scan` over each row's lazily walked buckets."""
        _, n_queries = _block_shape(comps)
        return [
            self._scan(self._row_buckets(comps, i), max_retrieved)
            for i in range(n_queries)
        ]

    def batch_query_hits(
        self, comps: Sequence[np.ndarray], max_hits: int | None = None
    ) -> BatchHits:
        """Each row's walk, stopped at its cap (the last bucket cut to
        fit)."""
        n_tables, n_queries = _block_shape(comps)
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
            walk = self._row_buckets(comps, i)
            for t in range(n_tables):
                if max_hits is not None and gathered >= max_hits:
                    break
                bucket = next(walk)
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


def _query_fingerprints(comps: Sequence[np.ndarray]) -> np.ndarray:
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
        self, qfps: np.ndarray, first: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve every (table, query) bucket of a ``(w, n_queries)``
        uint64 query-fingerprint matrix whose row ``k`` belongs to table
        ``first + k`` (:func:`_query_fingerprints`), in one
        ``searchsorted`` per table: returns ``(starts, counts)``, both
        shape ``(w, n_queries)``, giving each bucket's slice of the shared
        ``_ids`` array."""
        n_rows, n_queries = qfps.shape
        starts = np.zeros((n_rows, n_queries), dtype=np.int64)
        counts = np.zeros((n_rows, n_queries), dtype=np.int64)
        for k in range(n_rows):
            t = first + k
            unique = self._unique[t]
            if unique.size == 0:
                continue
            offsets = self._offsets[t]
            pos = np.searchsorted(unique, qfps[k])
            pos_c = np.minimum(pos, unique.size - 1)
            found = unique[pos_c] == qfps[k]
            lo = offsets[pos_c]
            starts[k] = np.where(found, lo + self._base[t], 0)
            counts[k] = np.where(found, offsets[pos_c + 1] - lo, 0)
        return starts, counts

    def batch_query(
        self, comps: Sequence[np.ndarray], max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Vectorized probe: :func:`packed_probe` over this one backend
        with the table clip, probed in waves under a budget, then
        :func:`batch_results`."""
        return batch_results(
            packed_probe([(self, 0)], comps, max_retrieved=max_retrieved),
            len(comps),
            self._n_points,
            max_retrieved,
        )

    def batch_query_hits(
        self, comps: Sequence[np.ndarray], max_hits: int | None = None
    ) -> BatchHits:
        """Vectorized bulk hit streams: :func:`packed_probe` over this one
        backend with the exact per-hit ``max_hits`` cut, probed in waves
        (rows past their cap are neither hashed nor looked up further, and
        clipped tails are never gathered), hits widened to int64."""
        block = packed_probe([(self, 0)], comps, max_hits=max_hits)
        return replace(block, hits=np.asarray(block.hits, dtype=np.int64))


def _wave_fingerprints(
    source: np.ndarray | Sequence[np.ndarray],
    first: int,
    last: int,
    rows: np.ndarray | None,
) -> np.ndarray:
    """Fingerprints of tables ``first .. last - 1`` for ``rows`` (``None``:
    every row), as a ``(last - first, n_rows)`` matrix, from a fingerprint
    matrix or a component sequence.  A :class:`QueryComponents` hashes
    only those rows, all the wave's tables in one
    :meth:`QueryComponents.tables` call (one stacked product for Gaussian
    filter tables)."""
    if isinstance(source, np.ndarray):
        block = source[first:last]
        return block if rows is None else block[:, rows]
    if isinstance(source, QueryComponents):
        comps = source.tables(first, last, rows)
    elif rows is None:
        comps = [source[t] for t in range(first, last)]
    else:
        comps = [as_components(source[t])[rows] for t in range(first, last)]
    return _query_fingerprints(comps)


def packed_probe(
    parts: Sequence[tuple[PackedBackend, int]],
    source: np.ndarray | Sequence[np.ndarray],
    *,
    max_retrieved: int | None = None,
    max_hits: int | None = None,
) -> BatchHits:
    """THE packed probe — lookup, clip, gather — over one or more parts.

    ``parts`` are ``(backend, id_offset)`` pairs built over the same ``L``
    hash pairs on consecutive point ranges, in ascending offset order: one
    backend at offset 0 for a :class:`PackedBackend`, or the shards of a
    sharded index.  ``source`` is the block's ``(L, n_queries)`` uint64
    query fingerprint matrix (:func:`_query_fingerprints`), or its
    per-table components (a list or a :class:`QueryComponents`), which
    are fingerprinted here; either way once for every part.  Each part
    resolves its buckets; each query's stream is then what one index over
    the concatenated parts retrieves — table by table, parts in offset
    order within a table — and its per-table counts are the parts' counts
    summed.  At most one cut applies to the stream:

    * ``max_retrieved``, the Theorem 6.1 table clip on the summed counts
      (a query stops after the table where its cumulative count reaches
      the budget);
    * ``max_hits``, an exact cut at that many hits, mid-bucket if needed.

    Without a cut every table is looked up for every query in one wave.
    Under either cut the tables are probed in waves of :data:`WAVE`, and
    one rule retires the rows: table ``t`` is reached when the row held
    fewer hits than the cap as ``t`` began (under ``max_retrieved`` the
    first table always is, since a budget of 0 probes one table).  Each
    wave fingerprints and looks up only the rows still below their cap and
    zeroes the counts of the tables they do not reach, which *is* the
    Theorem 6.1 table clip.  A :class:`QueryComponents` source hashes a
    wave's tables for those rows in one :meth:`QueryComponents.tables`
    call: for Gaussian filter tables one stacked product per wave
    (:class:`~repro.families.filters.FilterStack`), else one hash call per
    table.  ``max_hits`` then cuts the last reached bucket to fit.  The
    buckets are resolved into ``(starts, counts)`` first and only the kept
    ones are gathered, in one pass at the end.  A cut stream
    carries the summed pre-cut counts of the tables reached in
    ``full_table_counts`` (see :class:`BatchHits`).
    One part at offset 0 keeps its stored id dtype; otherwise each part's
    hits are lifted to int64 global ids and interleaved into probe order
    in one pass.
    """
    if max_retrieved is not None and max_hits is not None:
        raise ValueError("pass max_retrieved or max_hits, not both")
    n_tables, n_queries = (
        source.shape if isinstance(source, np.ndarray)
        else _block_shape(source)
    )
    # (n_queries, L, parts): row-major order is each query's probe order.
    starts = np.zeros((n_queries, n_tables, len(parts)), dtype=np.int64)
    counts = np.zeros_like(starts)
    cap = max_hits if max_retrieved is None else max_retrieved
    wave = n_tables if cap is None else WAVE
    # A max_hits cap of 0 reaches no table.
    active = np.arange(0 if max_hits == 0 else n_queries)
    held = np.zeros(n_queries, dtype=np.int64)
    for first in range(0, n_tables, wave):
        if not active.size:
            break
        last = min(first + wave, n_tables)
        whole = active.size == n_queries
        fps = _wave_fingerprints(source, first, last, None if whole else active)
        rows = slice(None) if whole else active
        for s, (backend, _) in enumerate(parts):
            part_starts, part_counts = backend._lookup(fps, first)
            starts[rows, first:last, s] = part_starts.T
            counts[rows, first:last, s] = part_counts.T
        if cap is not None:
            # Drop the counts of the wave's tables each row does not reach.
            wave_counts = counts[active, first:last]
            per_table = wave_counts.sum(axis=2)
            began = held[active, None] + np.cumsum(per_table, axis=1) - per_table
            reached = began < cap
            if first == 0 and max_retrieved is not None:
                reached[:, 0] = True
            counts[active, first:last] = wave_counts * reached[:, :, None]
            held[active] += (per_table * reached).sum(axis=1)
            active = active[held[active] < cap]
    full = counts.sum(axis=2)
    truncated = np.zeros(n_queries, dtype=bool)
    if max_retrieved is not None:
        truncated = held >= max_retrieved
    elif max_hits is not None:
        # Hits left in each query's cap when a bucket begins: clip each
        # bucket to it, cutting the stream at exactly max_hits hits.
        flat = counts.reshape(n_queries, n_tables * len(parts))
        before = np.cumsum(flat, axis=1) - flat
        counts = np.minimum(
            flat, np.clip(max_hits - before, 0, None)
        ).reshape(counts.shape)
        truncated = counts.sum(axis=(1, 2)) == max_hits
    kept = counts.sum(axis=2)
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(kept.sum(axis=1), out=offsets[1:])
    gathered = [
        segment_gather(
            backend._ids, starts[:, :, s].ravel(), counts[:, :, s].ravel()
        )
        for s, (backend, _) in enumerate(parts)
    ]
    if len(parts) == 1 and parts[0][1] == 0:
        hits = gathered[0]
    else:
        # Lift every part's hits to global ids (in int64, so a global id
        # past the int32 range cannot wrap) in one flat array laid out
        # (part, query, table), then gather it in (query, table, part)
        # order.
        flat_hits = np.empty(int(offsets[-1]), dtype=np.int64)
        position = 0
        for (_, offset), part_hits in zip(parts, gathered):
            np.add(
                part_hits, offset,
                out=flat_hits[position : position + part_hits.size],
                dtype=np.int64,
            )
            position += part_hits.size
        by_part = counts.transpose(2, 0, 1)
        sizes = by_part.ravel()
        flat_starts = (np.cumsum(sizes) - sizes).reshape(by_part.shape)
        hits = segment_gather(
            flat_hits, flat_starts.transpose(1, 2, 0).ravel(), counts.ravel()
        )
    return BatchHits(
        hits=hits,
        offsets=offsets,
        table_counts=kept,
        truncated=truncated,
        full_table_counts=None if cap is None else full,
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
