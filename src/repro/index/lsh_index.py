"""Generic asymmetric hashing index.

The data-structure skeleton shared by every Section 6 application, directly
following the proof of Theorem 6.1: sample ``L`` independent pairs
``(h_i, g_i)`` from a DSH family, store each data point ``x`` in table ``i``
under key ``h_i(x)``, and probe a query ``y`` at key ``g_i(y)``.  The
probability that a specific point is retrieved in one table is exactly the
family's CPF at their distance, so retrieval statistics (candidates,
duplicates) are the empirical face of everything the paper proves about
CPFs.

Storage is pluggable (:mod:`repro.index.backends`): the ``"dict"`` backend
buckets serialized component rows in per-table hash maps (the reference
layout), the ``"packed"`` backend mixes rows to uint64 fingerprints and
stores CSR-style sorted arrays probed with ``np.searchsorted`` (the
vectorized production layout).  Both return identical candidates, order,
and stats.

The query surface follows the repo-wide :class:`~repro.index.queryable.Queryable`
convention: :meth:`DSHIndex.query` for one point, :meth:`DSHIndex.batch_query`
for a batch, both returning :class:`~repro.index.backends.CandidateResult`
(tuple-compatible with the legacy ``(candidates, stats)`` pairs).
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from repro.core.family import DSHFamily, HashPair
from repro.index.backends import (
    BatchHits,
    CandidateResult,
    IndexBackend,
    QueryStats,
    make_backend,
)
from repro.utils.rng import ensure_rng, rng_from_state, rng_state
from repro.utils.validation import check_finite, check_real_dtype

__all__ = ["QueryStats", "CandidateResult", "DSHIndex"]


def _check_query_block(queries: np.ndarray, dim: int | None) -> np.ndarray:
    """Normalize a query block to ``(n, d)`` and validate it at the index
    boundary (shared by :class:`DSHIndex` and the sharded index).

    ``d`` must match the indexed point set (``dim``; ``None`` before a
    build) — a mismatched query would otherwise fail deep inside a family's
    hash closure or, for families that slice coordinates, silently mis-hash.
    Floating blocks must be finite: a NaN/inf row would hash to a "not
    captured" sentinel and be answered as "not found" instead of failing.
    Integer and bool blocks skip that scan.  Any other dtype (object,
    string, complex, ...) raises ``TypeError``.
    """
    queries = np.atleast_2d(check_real_dtype(queries, "queries"))
    if queries.ndim != 2:
        raise ValueError(
            f"queries must be one point (d,) or a block (n, d), "
            f"got shape {queries.shape}"
        )
    if dim is not None and queries.shape[1] != dim:
        raise ValueError(
            f"query dimensionality {queries.shape[1]} does not match "
            f"the indexed point set (d={dim})"
        )
    if np.issubdtype(queries.dtype, np.floating):
        check_finite(queries, "queries")
    return queries


def _check_budget(max_retrieved: object) -> int | None:
    """Validate a ``max_retrieved`` budget at the index boundary (shared by
    :class:`DSHIndex`, the sharded index and the async server's
    admission): ``None`` (no budget) or a non-negative integer, returned
    as a Python ``int``.  A non-integer (``2.5``, ``"8"``) raises
    ``TypeError`` and a negative value ``ValueError``, instead of being
    compared as a float or answered as a one-table probe."""
    if max_retrieved is None:
        return None
    try:
        budget = operator.index(max_retrieved)  # type: ignore[arg-type]
    except TypeError:
        raise TypeError(
            "max_retrieved must be None or an integer, got "
            f"{type(max_retrieved).__name__} {max_retrieved!r}"
        ) from None
    if budget < 0:
        raise ValueError(f"max_retrieved must be >= 0, got {budget}")
    return budget


def _check_single_query(query: np.ndarray, dim: int | None) -> np.ndarray:
    """:func:`_check_query_block` for exactly one point: ``(d,)`` or
    ``(1, d)`` becomes ``(1, d)``; a block of several rows raises instead
    of being answered as one point.  Shared by every single-query entry
    point (:class:`DSHIndex`, the sharded index, the application layers)."""
    queries = _check_query_block(query, dim)
    if queries.shape[0] != 1:
        raise ValueError(f"query must be a single point, got {queries.shape[0]}")
    return queries


class DSHIndex:
    """``L``-table asymmetric hashing index over a fixed point set.

    Parameters
    ----------
    family:
        Any DSH family; data points are hashed with the ``h`` side and
        queries with the ``g`` side of each sampled pair.
    n_tables:
        Number ``L`` of independent repetitions.
    rng:
        Seed or generator for sampling the ``L`` pairs.
    backend:
        Storage layout: ``"dict"`` (reference, exact byte keys) or
        ``"packed"`` (vectorized CSR over uint64 fingerprints), a backend
        class, or a ready :class:`~repro.index.backends.IndexBackend`
        instance.

    Notes
    -----
    The index stores point *indices*; callers keep the point array.  Build
    cost is ``O(L n)`` hash evaluations; the per-table layout is chosen by
    ``backend``.
    """

    def __init__(
        self,
        family: DSHFamily,
        n_tables: int,
        rng: int | np.random.Generator | None = None,
        backend: str | IndexBackend | type[IndexBackend] = "dict",
    ) -> None:
        if n_tables < 1:
            raise ValueError(f"n_tables must be >= 1, got {n_tables}")
        self.family = family
        self.n_tables = int(n_tables)
        rng = ensure_rng(rng)
        # Snapshot the generator state *before* sampling: replaying it
        # through sample_pairs regenerates these exact L pairs, which is
        # how a persisted index revives its hash functions without an
        # integer seed (see pair_rng_state / from_state).
        self._pair_rng_state: dict = rng_state(rng)
        self._pairs: list[HashPair] = family.sample_pairs(n_tables, rng)
        self._backend: IndexBackend = make_backend(backend).attach()
        self._n_points = 0
        self._dim: int | None = None
        self._built = False

    @property
    def backend(self) -> str:
        """Name of the active storage backend."""
        return self._backend.name

    @property
    def pair_rng_state(self) -> dict:
        """Snapshot of the bit-generator state from which the ``L`` hash
        pairs were sampled (JSON-able).  Replaying it through the same
        family's ``sample_pairs`` regenerates identical pairs — the handle
        persistence uses to revive a saved index's hash functions."""
        return dict(self._pair_rng_state)

    @classmethod
    def from_state(
        cls,
        family: DSHFamily,
        n_tables: int,
        *,
        pair_rng_state: dict,
        backend: IndexBackend,
        n_points: int,
        dim: int,
    ) -> "DSHIndex":
        """Revive a built index from persisted state — no data hashing.

        ``backend`` must already hold the built tables (typically loaded
        via :meth:`IndexBackend.load` with memory-mapped arrays) and be
        unattached; the hash pairs are regenerated by replaying
        ``pair_rng_state`` through ``family.sample_pairs``, so they match
        the pairs that populated those tables bit for bit.  Cost is O(L)
        pair sampling — independent of ``n_points``.
        """
        index = cls(
            family, n_tables, rng_from_state(pair_rng_state), backend=backend
        )
        index._n_points = int(n_points)
        index._dim = int(dim)
        index._built = True
        return index

    def __repr__(self) -> str:
        built = (
            f"n_points={self._n_points}, d={self._dim}"
            if self._built
            else "unbuilt"
        )
        return (
            f"{type(self).__name__}(family={type(self.family).__name__}, "
            f"L={self.n_tables}, backend={self.backend!r}, {built})"
        )

    def build(
        self, points: np.ndarray, workers: int | None = None
    ) -> "DSHIndex":
        """Hash all ``points`` (shape ``(n, d)``) into the ``L`` tables.

        Parameters
        ----------
        points:
            Data set, shape ``(n, d)``.
        workers:
            Hash the ``L`` tables' ``h`` evaluations concurrently on this
            many threads (the kernels are NumPy-bound, so threads scale on
            multi-core hosts without pickling the point set).  ``None`` or
            ``1`` keeps the serial loop.  Table order — and therefore the
            built index — is identical either way.
        """
        points = np.atleast_2d(np.asarray(points))
        self._n_points = points.shape[0]
        self._dim = points.shape[1]
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers is not None and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                tables = list(
                    pool.map(lambda pair: pair.hash_data(points), self._pairs)
                )
        else:
            tables = [pair.hash_data(points) for pair in self._pairs]
        self._backend.build(tables)
        self._built = True
        return self

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._n_points

    @property
    def dim(self) -> int | None:
        """Dimensionality of the built point set (``None`` before build)."""
        return self._dim

    def bucket_sizes(self) -> list[int]:
        """All bucket sizes across tables (for load diagnostics)."""
        self._require_built()
        return self._backend.bucket_sizes()

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("index not built; call build(points) first")

    def _query_components(self, query: np.ndarray) -> list[np.ndarray]:
        """Hash one or more query rows through every table's ``g``."""
        return [pair.hash_query(query) for pair in self._pairs]

    def query(
        self, query: np.ndarray, max_retrieved: int | None = None
    ) -> CandidateResult:
        """Retrieve candidate indices for a single query point.

        Parameters
        ----------
        query:
            One point, shape ``(d,)`` or ``(1, d)``.
        max_retrieved:
            Optional budget on total retrievals (with multiplicity), a
            non-negative integer; probing stops once it is reached (the
            ``8L`` early-termination device in the proof of Theorem 6.1).
            A non-integer raises ``TypeError``, a negative one
            ``ValueError``.

        Returns
        -------
        CandidateResult
            Distinct candidate indices in first-seen order, plus stats
            (unpacks as the legacy ``(candidates, stats)`` tuple).

        Notes
        -----
        Hashing is lazy per table (a generator feeds the backend), so a
        truncating budget also stops hash evaluation at the truncating
        table — hash work for tables beyond it is never spent.
        """
        self._require_built()
        query = _check_single_query(query, self._dim)
        max_retrieved = _check_budget(max_retrieved)
        return self._backend.query(
            (pair.hash_query(query) for pair in self._pairs), max_retrieved
        )

    def iter_candidates(self, query: np.ndarray) -> Iterator[tuple[int, int]]:
        """Yield ``(index, table_number)`` hits lazily in probe order,
        *with* duplicates — callers wanting streaming early termination
        (annulus search) consume as much as they need.  Hashing stays lazy:
        table ``i`` is only hashed/probed if the consumer reaches it."""
        self._require_built()
        query = _check_single_query(query, self._dim)
        for table_number, pair in enumerate(self._pairs):
            bucket = self._backend.bucket(table_number, pair.hash_query(query))
            for idx in bucket:
                yield int(idx), table_number

    def query_hits(self, query: np.ndarray) -> np.ndarray:
        """All hits for one query as a flat int64 index array in probe
        order, duplicates preserved — the bulk counterpart of
        :meth:`iter_candidates` for consumers that always drain every table
        (range reporting)."""
        self._require_built()
        query = _check_single_query(query, self._dim)
        return self._backend.query_hits(self._query_components(query))

    def batch_query(
        self, queries: np.ndarray, max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Run :meth:`query` for each row of ``queries``.

        Hashes all queries through each table's ``g`` in one vectorized
        call (for a bit-sampling power, one fused column gather; see
        :class:`~repro.core.combinators.ConcatenatedFamily`), then hands
        the per-table component blocks to the backend: the dict backend
        walks buckets per query through the same probe routine as
        :meth:`query`; the packed backend fingerprints every table in one
        mixing pass per component width, resolves all ``(query, table)``
        buckets with batched ``searchsorted`` + one gather and dedups per
        query with a stamp pass.
        """
        self._require_built()
        queries = _check_query_block(queries, self._dim)
        max_retrieved = _check_budget(max_retrieved)
        return self._backend.batch_query(self._query_components(queries), max_retrieved)

    def batch_query_hits(
        self, queries: np.ndarray, max_hits: int | None = None
    ) -> BatchHits:
        """Bulk hit streams (duplicates preserved, probe order) for a block
        of queries — the batched counterpart of :meth:`query_hits` that the
        application layers' ``batch_query`` paths are built on.  ``max_hits``
        cuts each stream at exactly that many hits (hit granularity, unlike
        ``max_retrieved``'s table granularity)."""
        self._require_built()
        queries = _check_query_block(queries, self._dim)
        return self._backend.batch_query_hits(
            self._query_components(queries), max_hits
        )
