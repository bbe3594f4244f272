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

A single query is a one-row block: :meth:`DSHIndex.query` is
``batch_query`` on that row, so both run the same probe.  Query hashing is
lazy.  A block hands the backend a
:class:`~repro.index.backends.QueryComponents` that hashes a table on first
read.  Under a ``max_retrieved`` budget or a ``max_hits`` cap
(:meth:`DSHIndex.batch_query_hits`, the annulus path) the packed probe
reads it in waves of a few tables, hashing only the rows still below their
cap, so hash work stops with the budget at wave granularity; the dict
reference walk hashes exactly the tables each row reaches.  When every
table hashes queries with one-chunk Gaussian filters (the sphere annulus
family), the index keeps a :class:`~repro.families.filters.FilterStack`
and a wave's tables are hashed with one stacked product.  Without a cut
every table is hashed for every row.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.family import DSHFamily, HashPair
from repro.families.filters import FilterStack
from repro.index.backends import (
    BatchHits,
    CandidateResult,
    IndexBackend,
    QueryComponents,
    QueryStats,
    make_backend,
)
from repro.utils.rng import ensure_rng, rng_from_state, rng_state
from repro.utils.validation import check_finite, check_real_dtype

__all__ = ["QueryStats", "CandidateResult", "DSHIndex"]


def _check_real_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Data points or a query block, at least 2-D: bool, integer or real
    floating (else ``TypeError``) and, if floating, finite (``ValueError``:
    a NaN/inf row would hash to a family's "not captured" sentinel)."""
    array = np.atleast_2d(check_real_dtype(array, name))
    if np.issubdtype(array.dtype, np.floating):
        check_finite(array, name)
    return array


def _check_query_block(queries: np.ndarray, dim: int | None) -> np.ndarray:
    """Normalize a query block to ``(n, d)`` and validate it at the index
    boundary (shared by :class:`DSHIndex` and the sharded index).

    ``d`` must match the indexed point set (``dim``; ``None`` before a
    build) — a mismatched query would otherwise fail deep inside a family's
    hash closure or, for families that slice coordinates, silently mis-hash.
    Dtype and finiteness are checked by :func:`_check_real_finite`.
    """
    queries = _check_real_finite(queries, "queries")
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
    return queries


def _check_count(value: object, name: str, minimum: int) -> int:
    """``value`` as an ``int >= minimum``: a non-integer (``2.5``, ``"8"``)
    raises ``TypeError`` instead of being compared as a float."""
    try:
        count = operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def _check_budget(max_retrieved: object) -> int | None:
    """Validate a ``max_retrieved`` budget at the index boundary (shared by
    :class:`DSHIndex`, the sharded index and the async server's
    admission): ``None`` (no budget) or a non-negative integer, so a
    negative budget is not answered as a one-table probe."""
    if max_retrieved is None:
        return None
    return _check_count(max_retrieved, "max_retrieved", 0)


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
        Storage layout: ``"packed"`` (the default: vectorized CSR over
        uint64 fingerprints, as in :class:`~repro.api.IndexSpec`) or
        ``"dict"`` (the exact byte-key reference ``tests/test_oracle.py``
        checks against), a backend class, or a ready
        :class:`~repro.index.backends.IndexBackend` instance.

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
        backend: str | IndexBackend | type[IndexBackend] = "packed",
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
        # Gaussian filter tables hash a probe wave with one stacked product.
        self._stack = FilterStack.of([pair.g for pair in self._pairs])
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

        ``backend`` must already hold the built tables (as
        :func:`repro.api.load_index` fills it through
        :meth:`IndexBackend.import_arrays`, typically with memory-mapped
        arrays) and be unattached; the hash pairs are regenerated by
        replaying ``pair_rng_state`` through ``family.sample_pairs``, so they match
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
            Data set, shape ``(n, d)``; a non-real dtype or a NaN/inf
            point raises, as in a query block (:func:`_check_real_finite`).
        workers:
            Hash the ``L`` tables' ``h`` evaluations concurrently on this
            many threads (the kernels are NumPy-bound, so threads scale on
            multi-core hosts without pickling the point set).  ``None`` or
            ``1`` keeps the serial loop.  Table order — and therefore the
            built index — is identical either way.
        """
        points = _check_real_finite(points, "points")
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
        # Only now: a rejected or failed rebuild keeps the old shape.
        self._n_points, self._dim = points.shape
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

    def _query_components(self, query: np.ndarray) -> QueryComponents:
        """One or more query rows' components under every table's ``g``,
        each table hashed when the backend first reads it."""
        return QueryComponents(
            [pair.hash_query for pair in self._pairs], query, self._stack
        )

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
        The one-row case of :meth:`batch_query`: under a budget, hashing
        stops with the probe wave that holds the truncating table.
        """
        query = _check_single_query(query, self._dim)
        return self.batch_query(query, max_retrieved)[0]

    def batch_query(
        self, queries: np.ndarray, max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        """Candidates for every row of ``queries``, each under the
        ``max_retrieved`` budget as in :meth:`query` (which is the one-row
        case of this method).

        The packed backend hashes the rows through each table's ``g`` in
        one vectorized call per probe wave (for a bit-sampling power, one
        fused column gather; see
        :class:`~repro.core.combinators.ConcatenatedFamily`), fingerprints
        a wave in one mixing pass per component width, resolves its
        ``(query, table)`` buckets with batched ``searchsorted``, gathers
        once and dedups per query with a stamp pass.  The dict backend
        walks each row's tables one bucket at a time, the reference.
        """
        self._require_built()
        queries = _check_query_block(queries, self._dim)
        max_retrieved = _check_budget(max_retrieved)
        return self._backend.batch_query(self._query_components(queries), max_retrieved)

    def batch_query_hits(
        self, queries: np.ndarray, max_hits: int | None = None
    ) -> BatchHits:
        """Bulk hit streams (duplicates preserved, probe order) for a block
        of queries, the retrieval stream every application layer's query
        paths are built on; ``batch_query_hits(q[None])`` is one query's
        stream (``segment(0)``, with ``table_of`` for each hit's table).

        ``max_hits`` cuts each stream at exactly that many hits (hit
        granularity, unlike ``max_retrieved``'s table granularity): ``None``
        or a non-negative integer (a non-integer raises ``TypeError``, a
        negative one ``ValueError``).  Hashing is lazy at wave granularity:
        under a cap the packed backend hashes and looks up the tables in
        waves of :data:`~repro.index.backends.WAVE`, each for the rows
        still below their cap, so a row's tables past the wave holding its
        cut are never hashed.  Without a cap every table is hashed for
        every row.
        """
        self._require_built()
        queries = _check_query_block(queries, self._dim)
        if max_hits is not None:
            max_hits = _check_count(max_hits, "max_hits", 0)
        return self._backend.batch_query_hits(
            self._query_components(queries), max_hits
        )
