"""Output-sensitive spherical range reporting (Section 6.3, Theorem 6.5).

Report *all* points within distance ``r`` of a query.  With a classical
(monotone decreasing) LSH the very closest points collide in almost every
repetition, so each is retrieved ``~L`` times — pure waste.  A
*step-function* CPF (flat at ``f_min ~ f_max`` on ``[0, r]``) retrieves
every near point with roughly equal probability per table, so the expected
number of duplicate retrievals per reported point is ``O(f_max / f_min)``
(Theorem 6.5): constant when the step is flat.

:class:`RangeReportingIndex` runs the ``L = ceil(c / f_min)`` repetitions
and reports duplicate statistics so the benchmark can compare step CPFs
against classical LSH head-to-head.  It is
:class:`~repro.index.queryable.Queryable`:
:meth:`RangeReportingIndex.batch_query` drains a whole block through the
backend's batched hits-with-multiplicity path, and
:meth:`RangeReportingIndex.query` is its one-row block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.family import DSHFamily
from repro.index.backends import IndexBackend, QueryStats
from repro.index.lsh_index import DSHIndex, _check_single_query
from repro.index.queryable import QueryResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_real_dtype

__all__ = ["RangeReport", "RangeReportingIndex"]


@dataclass(frozen=True)
class RangeReport(QueryResult):
    """Result of one range-reporting query.

    The Theorem 6.5 cost model is
    ``O(d n^rho* + d |S| f_max / f_min)``: the first term pays for
    far-candidate noise, the second for re-retrieving in-range points.  The
    report separates the two so the ``f_max / f_min`` effect is measurable.

    Attributes
    ----------
    stats:
        Retrieval work: ``retrieved`` counts all candidate retrievals with
        multiplicity, ``unique_candidates`` the distinct candidates
        (reported or not).
    indices:
        Distinct reported point indices (distance ``<= r_report``).
    in_range_retrievals:
        Retrievals (with multiplicity) of reported points only.
    retrievals_per_report:
        ``in_range_retrievals / max(1, |S|)`` — the empirical
        output-sensitivity figure, ``<= L f_max`` and within a factor
        ``f_max / f_min`` of the minimum possible for recall ``1 - e^{-L
        f_min}``.
    """

    indices: tuple[int, ...]
    in_range_retrievals: int

    @property
    def retrievals_per_report(self) -> float:
        """In-range retrievals amortized over reported points (Theorem 6.5
        charges ``O(f_max / f_min)`` per report)."""
        return self.in_range_retrievals / max(1, len(self.indices))

    @property
    def far_retrievals(self) -> int:
        """Retrievals of out-of-range candidates (the ``n^rho*`` term)."""
        return self.retrieved - self.in_range_retrievals


class RangeReportingIndex:
    """Report all points within distance ``r_report`` of a query.

    Parameters
    ----------
    points:
        Data set, shape ``(n, d)``.
    family:
        DSH family; a step-CPF family (:mod:`repro.families.step`) gives
        output-sensitive behaviour, a classical LSH gives the wasteful
        baseline.
    r_report:
        Reporting radius: every retrieved candidate within this distance is
        returned (Theorem 6.5's ``r_+`` filtering happens implicitly: far
        candidates are discarded after the distance check).
    distance:
        Vectorized ``(query (d,), points (m, d)) -> (m,)`` distance.
    n_tables:
        Number of repetitions ``L`` (``~ceil(c / f_min)`` for recall
        ``1 - e^{-c}`` on the flat region).
    rng:
        Seed or generator.
    backend:
        Storage backend forwarded to :class:`DSHIndex` (``"packed"`` by
        default).
    workers:
        Thread count for the build's per-table hashing (forwarded to
        :meth:`DSHIndex.build`); ``None`` hashes serially.
    """

    def __init__(
        self,
        points: np.ndarray,
        family: DSHFamily,
        r_report: float,
        distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
        n_tables: int,
        rng: int | np.random.Generator | None = None,
        backend: str | IndexBackend = "packed",
        workers: int | None = None,
    ) -> None:
        self._configure(points, r_report, distance)
        self._index = DSHIndex(
            family, n_tables, ensure_rng(rng), backend=backend
        ).build(self.points, workers=workers)

    @classmethod
    def _restore(
        cls,
        *,
        points: np.ndarray,
        r_report: float,
        distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
        index: DSHIndex,
    ) -> "RangeReportingIndex":
        """Wrap an already-built :class:`DSHIndex` over ``points`` — no
        hashing, no point copies.  The one assembly step behind
        :meth:`repro.api.IndexSpec.build` (a freshly built index) and
        :func:`repro.api.load_index` (one revived over memory-mapped
        tables)."""
        self = object.__new__(cls)
        self._configure(points, r_report, distance)
        self._index = index
        return self

    def _configure(
        self,
        points: np.ndarray,
        r_report: float,
        distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> None:
        """Validate and set everything but the inner index."""
        if r_report <= 0:
            raise ValueError(f"r_report must be positive, got {r_report}")
        points = np.asarray(check_real_dtype(points, "points"), np.float64)
        self.points = np.atleast_2d(points)
        self.r_report = float(r_report)
        self.distance = distance

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
            f"n_points={self.n_points}, r_report={self.r_report})"
        )

    def _report_from_hits(
        self, query_point: np.ndarray, hits: np.ndarray
    ) -> RangeReport:
        """Turn one query's raw hit stream (duplicates preserved, probe
        order) into a :class:`RangeReport`: count multiplicities with one
        ``np.unique``, keep first-seen candidate order, distance-check the
        distinct candidates."""
        if hits.size:
            unique, first_seen, multiplicity = np.unique(
                hits, return_index=True, return_counts=True
            )
            order = np.argsort(first_seen, kind="stable")
            cand = unique[order]
            multiplicity = multiplicity[order]
            dists = self.distance(query_point, self.points[cand])
            in_range = dists <= self.r_report
            reported = tuple(int(i) for i in cand[in_range])
            in_range_retrievals = int(multiplicity[in_range].sum())
            n_unique = int(unique.size)
        else:
            reported = ()
            in_range_retrievals = 0
            n_unique = 0
        return RangeReport(
            stats=QueryStats(
                retrieved=int(hits.size),
                unique_candidates=n_unique,
                tables_probed=self._index.n_tables,
            ),
            indices=reported,
            in_range_retrievals=in_range_retrievals,
        )

    def query(self, query_point: np.ndarray) -> RangeReport:
        """Retrieve candidates from all tables, report those within range.

        Range reporting always drains every table, so there is no early
        stop to save: a single query is a one-row :meth:`batch_query`.
        """
        query = _check_single_query(query_point, self._index.dim)
        return self.batch_query(query)[0]

    def batch_query(self, query_points: np.ndarray) -> list[RangeReport]:
        """One :class:`RangeReport` per row of ``query_points``, vectorized.

        All queries are hashed per table in one call and every
        (query, table) bucket is resolved through the backend's batched
        hits-with-multiplicity path (one ``searchsorted`` + flat gather on
        the packed backend); :meth:`query` is the one-row case, and
        ``tests/test_oracle.py`` checks both against the dict backend."""
        queries = np.atleast_2d(check_real_dtype(query_points, "queries"))
        queries = queries.astype(np.float64, copy=False)
        block = self._index.batch_query_hits(queries)
        return [
            self._report_from_hits(queries[i], block.segment(i))
            for i in range(queries.shape[0])
        ]

    def recall(self, query_point: np.ndarray, true_indices: set[int]) -> float:
        """Fraction of ``true_indices`` (ground-truth in-range points)
        recovered by one query."""
        if not true_indices:
            return 1.0
        report = self.query(query_point)
        return len(set(report.indices) & true_indices) / len(true_indices)
