"""Approximate annulus search (Theorem 6.1, Definition 6.3, Theorem 6.4).

Given a unimodal DSH family whose CPF peaks inside a target proximity
interval, the Theorem 6.1 data structure retrieves — with probability at
least 1/2 — a point whose proximity to the query lies in the (slightly
wider) reporting interval, examining ``O(n^rho*)`` candidates where
``rho* = log(1/f(r)) / log n``.

The implementation is proximity-agnostic: pass any row-wise proximity
function (Euclidean distance, inner product, Hamming distance) plus the
reporting interval.  :func:`sphere_annulus_index` wires it to the
Section 6.2 sphere family for the Theorem 6.4 setting.

:class:`AnnulusIndex` is :class:`~repro.index.queryable.Queryable`, with
one probe path: :meth:`AnnulusIndex.batch_query` routes a query block
through the backend's batched hits-with-multiplicity path, cut at the
``8 L`` budget, evaluates proximity in one call per query over its cut
hits, and finds each query's reported point, distinct-candidate count and
stopping table with segment reductions over the block.
:meth:`AnnulusIndex.query` is its one-row case and
:meth:`AnnulusIndex.query_many` reads the same one-row stream past the
first hit.  ``tests/test_oracle.py`` holds all three to the literal
Theorem 6.1 procedure (stream the hits, stop at the first in-interval
one) over the dict backend's walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.family import DSHFamily
from repro.families.annulus_sphere import AnnulusFamily
from repro.index.backends import BatchHits, IndexBackend, QueryStats
from repro.index.lsh_index import DSHIndex, _check_count, _check_single_query
from repro.index.queryable import QueryResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_real_dtype

if TYPE_CHECKING:
    from typing import Self

__all__ = [
    "AnnulusQueryResult",
    "AnnulusIndex",
    "sphere_annulus_index",
    "sphere_family_for_interval",
    "sphere_peak_placement",
]


@dataclass(frozen=True)
class AnnulusQueryResult(QueryResult):
    """Outcome of one annulus query.

    Attributes
    ----------
    stats:
        Retrieval work behind the answer: ``retrieved`` counts candidate
        hits consumed (with multiplicity, bounded by the ``8 L`` budget per
        the Theorem 6.1 proof), ``truncated`` flags a budget exhaustion
        without a hit.
    index:
        Index of a reported point with proximity inside the reporting
        interval, or ``None`` if the search failed / exhausted its budget.
    proximity:
        The reported point's proximity to the query (``nan`` when ``None``).
    """

    index: int | None
    proximity: float

    @property
    def found(self) -> bool:
        """Whether a valid point was reported."""
        return self.index is not None

    @property
    def candidates_examined(self) -> int:
        """Candidate retrievals consumed (with multiplicity) — legacy
        spelling of ``stats.retrieved``."""
        return self.stats.retrieved


class AnnulusIndex:
    """The Theorem 6.1 data structure.

    Parameters
    ----------
    points:
        Data set, shape ``(n, d)``.
    family:
        A DSH family whose CPF peaks inside the reporting interval (e.g.
        :class:`~repro.families.annulus_sphere.AnnulusFamily` on the sphere
        or a shifted Euclidean family).
    interval:
        Reporting interval ``(lo, hi)`` in proximity units.
    proximity:
        Vectorized proximity ``(query (d,), points (m, d)) -> (m,)`` —
        e.g. Euclidean distance or inner product.
    n_tables:
        Number of repetitions ``L``; pick ``~ceil(c / f(r))`` for target
        success probability ``1 - e^{-c}`` (the theorem uses ``L = 1/f(r)``
        for probability ``1/e``, then amplifies).
    budget_factor:
        Early termination after ``budget_factor * L`` retrievals (the
        theorem's Markov argument uses 8).
    rng:
        Seed or generator.
    backend:
        Storage backend forwarded to :class:`DSHIndex` (``"packed"`` by
        default; both backends return identical candidate streams).
    workers:
        Thread count for the build's per-table hashing (forwarded to
        :meth:`DSHIndex.build`); ``None`` hashes serially.
    """

    def __init__(
        self,
        points: np.ndarray,
        family: DSHFamily,
        interval: tuple[float, float],
        proximity: Callable[[np.ndarray, np.ndarray], np.ndarray],
        n_tables: int,
        budget_factor: float = 8.0,
        rng: int | np.random.Generator | None = None,
        backend: str | IndexBackend = "packed",
        workers: int | None = None,
    ) -> None:
        self._configure(points, interval, proximity, budget_factor, n_tables)
        self._index = DSHIndex(
            family, n_tables, ensure_rng(rng), backend=backend
        ).build(self.points, workers=workers)

    @classmethod
    def _restore(
        cls,
        *,
        points: np.ndarray,
        interval: tuple[float, float],
        proximity: Callable[[np.ndarray, np.ndarray], np.ndarray],
        budget_factor: float,
        index: DSHIndex,
    ) -> Self:
        """Wrap an already-built :class:`DSHIndex` over ``points`` — no
        hashing, no point copies.  The one assembly step behind
        :meth:`repro.api.IndexSpec.build` (a freshly built index) and
        :func:`repro.api.load_index` (one revived over memory-mapped
        tables, where ``points`` may be a read-only memmap; every query
        path only reads it)."""
        self = object.__new__(cls)
        self._configure(points, interval, proximity, budget_factor, index.n_tables)
        self._index = index
        return self

    def _configure(
        self,
        points: np.ndarray,
        interval: tuple[float, float],
        proximity: Callable[[np.ndarray, np.ndarray], np.ndarray],
        budget_factor: float,
        n_tables: int,
    ) -> None:
        """Validate and set everything but the inner index."""
        lo, hi = interval
        if not lo < hi:
            raise ValueError(f"interval must satisfy lo < hi, got {interval}")
        if budget_factor <= 0:
            raise ValueError(f"budget_factor must be positive, got {budget_factor}")
        points = np.asarray(check_real_dtype(points, "points"), np.float64)
        self.points = np.atleast_2d(points)
        self.interval = (float(lo), float(hi))
        self.proximity = proximity
        self.budget = int(np.ceil(budget_factor * n_tables))

    @property
    def backend(self) -> str:
        """Name of the underlying storage backend."""
        return self._index.backend

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._index.n_points

    @property
    def dim(self) -> int | None:
        """Dimensionality of the indexed point set."""
        return self._index.dim

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(family={type(self._index.family).__name__}, "
            f"L={self._index.n_tables}, backend={self.backend!r}, "
            f"n_points={self.n_points}, interval={self.interval})"
        )

    def _not_found(
        self, examined: int, unique: int, tables_probed: int, truncated: bool
    ) -> AnnulusQueryResult:
        return AnnulusQueryResult(
            stats=QueryStats(
                retrieved=examined,
                unique_candidates=unique,
                tables_probed=tables_probed,
                truncated=truncated,
            ),
            index=None,
            proximity=float("nan"),
        )

    def _proximities(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``self.proximity`` of ``query`` to ``rows``, held to its
        ``(query (d,), points (m, d)) -> (m,)`` contract: a scalar or
        wrong-length output raises instead of being broadcast or indexed."""
        values = np.asarray(self.proximity(query, rows), dtype=np.float64)
        if values.shape != (rows.shape[0],):
            raise ValueError(
                "proximity must map (query (d,), points (m, d)) to shape "
                f"(m,); got shape {values.shape} for m={rows.shape[0]}"
            )
        return values

    def _single(self, query_point: np.ndarray) -> np.ndarray:
        """One query point as a float64 ``(1, d)`` block; a block of
        several rows raises instead of being flattened into one point."""
        query = _check_single_query(query_point, self._index.dim)
        return query.astype(np.float64)

    def _stream(
        self, queries: np.ndarray
    ) -> tuple[BatchHits, np.ndarray, np.ndarray]:
        """The block's hit streams cut at the budget, plus two per-hit
        arrays: the proximity of each hit to its query (one call per query
        over its segment, repeats included) and whether the hit is the
        first occurrence of its point within its query's segment."""
        block = self._index.batch_query_hits(queries, max_hits=self.budget)
        hits = block.hits
        positions = np.arange(hits.size)
        prox = np.empty(hits.size, dtype=np.float64)
        first = np.empty(hits.size, dtype=bool)
        # first_seen_dedup's stamp, kept as a per-hit flag: each point id
        # carries the position of its first occurrence in the segment.
        stamp = np.empty(self.n_points, dtype=np.int64)
        bounds = block.offsets.tolist()
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            if a == b:
                continue
            segment = hits[a:b]
            prox[a:b] = self._proximities(queries[i], self.points[segment])
            stamp[segment[::-1]] = positions[a:b][::-1]
            first[a:b] = stamp[segment] == positions[a:b]
        return block, prox, first

    def query(self, query_point: np.ndarray) -> AnnulusQueryResult:
        """Report one point with proximity in the interval, if found.

        The one-row case of :meth:`batch_query`, which replays the exact
        procedure from the proof of Theorem 6.1: stream candidates in probe
        order, stop at the first in-interval one or when the retrieval
        budget is spent.  Duplicate hits count toward the budget.
        """
        return self.batch_query(self._single(query_point))[0]

    def batch_query(self, query_points: np.ndarray) -> list[AnnulusQueryResult]:
        """:meth:`query` for every row of ``query_points``, vectorized.

        The block's hit streams come from the backend's batched
        hits-with-multiplicity path, cut at the per-query ``8 L`` budget at
        exact hit granularity.  On the packed backend it runs in waves of
        :data:`~repro.index.backends.WAVE` tables: each wave hashes and
        looks up (``searchsorted``) only the queries still under their
        budget, and one gather at the end collects every stream, so a
        query's tables past the wave holding its cut are never hashed.
        Proximity is then evaluated in one call per
        query over its clipped hits (repeats included), and the streaming
        procedure is replayed as segment reductions over the whole block:
        each hit is flagged as the first occurrence of its point within
        its query, the first in-range first occurrence is found with one
        ``searchsorted``, distinct-prefix counts are differences of one
        ``cumsum`` and the stopping table is read off the cumulative
        per-table hit counts.  Results do not depend on the block a query
        arrives in; ``tests/test_oracle.py`` holds them to a streaming scan
        of the dict backend's walk.
        """
        queries = np.atleast_2d(check_real_dtype(query_points, "queries"))
        queries = queries.astype(np.float64, copy=False)
        block, prox, first = self._stream(queries)
        hits, offsets = block.hits, block.offsets

        lo, hi = self.interval
        starts, ends = offsets[:-1], offsets[1:]
        # Only a first occurrence is ever checked by the streaming query.
        in_range = first & (prox >= lo) & (prox <= hi)
        in_range_at = np.append(np.flatnonzero(in_range), hits.size)
        hit_at = in_range_at[np.searchsorted(in_range_at, starts)]
        found = hit_at < ends
        retrieved = np.where(found, hit_at + 1, ends) - starts
        distinct = np.concatenate(([0], np.cumsum(first)))
        unique = distinct[starts + retrieved] - distinct[starts]
        # Table of the last examined hit: table_of's side="right" rule.
        stopped_in = (
            np.cumsum(block.table_counts, axis=1) <= (retrieved - 1)[:, None]
        ).sum(axis=1)
        truncated = block.truncated & ~found
        tables_probed = np.where(
            found | truncated, stopped_in + 1, self._index.n_tables
        )

        results: list[AnnulusQueryResult] = []
        for was_found, at, examined, n_unique, tables, cut in zip(
            found.tolist(), hit_at.tolist(), retrieved.tolist(),
            unique.tolist(), tables_probed.tolist(), truncated.tolist(),
        ):
            if was_found:
                results.append(
                    AnnulusQueryResult(
                        stats=QueryStats(
                            retrieved=examined,
                            unique_candidates=n_unique,
                            tables_probed=tables,
                        ),
                        index=int(hits[at]),
                        proximity=float(prox[at]),
                    )
                )
            else:
                results.append(
                    self._not_found(examined, n_unique, tables, cut)
                )
        return results

    def query_many(
        self, query_point: np.ndarray, k: int
    ) -> list[AnnulusQueryResult]:
        """Report up to ``k`` *distinct* in-interval points.

        Reads the query's budget-cut stream past the first hit (the
        one-row stream of :meth:`batch_query`) and keeps the first ``k``
        in-interval first occurrences — the natural extension for
        consumers like recommenders that want several diverse answers.
        Returns the hits found, possibly fewer than ``k``; each result's
        stats snapshot the work done up to that hit.  ``k`` is an integer
        of at least 1.
        """
        k = _check_count(k, "k", 1)
        block, prox, first = self._stream(self._single(query_point))
        lo, hi = self.interval
        found = np.flatnonzero(first & (prox >= lo) & (prox <= hi))[:k]
        distinct = np.cumsum(first)
        return [
            AnnulusQueryResult(
                stats=QueryStats(
                    retrieved=at + 1,
                    unique_candidates=int(distinct[at]),
                    tables_probed=block.table_of(0, at) + 1,
                ),
                index=int(block.hits[at]),
                proximity=float(prox[at]),
            )
            for at in found.tolist()
        ]


def _inner_product_proximity(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row-wise inner product ``points @ query``: the proximity of every
    sphere index (Theorem 6.4 annuli, Section 6.1 hyperplanes) and the
    ``"inner_product"`` entry of :data:`repro.api.PROXIMITIES`."""
    return points @ query


def sphere_annulus_index(
    points: np.ndarray,
    alpha_interval: tuple[float, float],
    t: float,
    n_tables: int,
    rng: int | np.random.Generator | None = None,
    budget_factor: float = 8.0,
    backend: str | IndexBackend = "packed",
    workers: int | None = None,
) -> AnnulusIndex:
    """Theorem 6.4 instantiation: inner-product annuli on the unit sphere.

    The family peak ``alpha_max`` is placed at the *geometric* midpoint of
    the interval in the ``a(alpha) = (1-alpha)/(1+alpha)`` parameterization
    (Section 6.2), which is where the combined ``D+ (x) D-`` CPF is
    balanced.

    Parameters
    ----------
    points:
        Unit vectors, shape ``(n, d)``.
    alpha_interval:
        Reporting interval of inner products ``(beta_-, beta_+)``.
    t:
        Filter threshold ``t_+`` (sharpness / cost knob).
    n_tables, rng, budget_factor, backend:
        As in :class:`AnnulusIndex`.
    """
    family = sphere_family_for_interval(
        np.atleast_2d(points).shape[1], alpha_interval, t
    )
    return AnnulusIndex(
        points,
        family,
        interval=alpha_interval,
        proximity=_inner_product_proximity,
        n_tables=n_tables,
        budget_factor=budget_factor,
        rng=rng,
        backend=backend,
        workers=workers,
    )


def sphere_family_for_interval(
    d: int, alpha_interval: tuple[float, float], t: float
) -> AnnulusFamily:
    """The Theorem 6.4 family for a reporting interval: peak at the
    :func:`sphere_peak_placement` midpoint, threshold ``t``.  THE single
    construction shared by :func:`sphere_annulus_index` and the hyperplane
    index (which :func:`repro.api.load_index` revives through the same
    derivation) — a loaded index must regenerate its hash pairs from
    *exactly* the family that populated the stored tables, so this mapping
    is defined once."""
    return AnnulusFamily(
        d, alpha_max=sphere_peak_placement(alpha_interval), t=t
    )


def sphere_peak_placement(alpha_interval: tuple[float, float]) -> float:
    """The Theorem 6.4 peak placement: ``alpha_max`` at the geometric
    midpoint of the reporting interval in the ``a(alpha)``
    parameterization.  Exposed so spec-driven construction
    (:mod:`repro.api`) can fill in a family's peak from an interval.
    Validates that the interval is a legal inner-product band."""
    beta_minus, beta_plus = alpha_interval
    if not -1.0 < beta_minus < beta_plus < 1.0:
        raise ValueError(f"need -1 < beta_- < beta_+ < 1, got {alpha_interval}")
    a_lo = (1.0 - beta_plus) / (1.0 + beta_plus)
    a_hi = (1.0 - beta_minus) / (1.0 + beta_minus)
    a_mid = float(np.sqrt(a_lo * a_hi))
    return (1.0 - a_mid) / (1.0 + a_mid)
