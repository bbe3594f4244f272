"""The common query surface shared by every Section 6 application.

All application indexes (raw candidate retrieval, annulus search,
hyperplane queries, range reporting) expose the same two entry points:

* ``query(point) -> Result`` — one query point, one result;
* ``batch_query(points) -> list[Result]`` — a ``(n, d)`` block of query
  points, vectorized end to end where the backend supports it, with results
  **identical** to running ``query`` in a loop (``tests/test_oracle.py``
  checks every surface against the dict backend's walk).

Every result carries a :class:`~repro.index.backends.QueryStats` describing
the retrieval work the query performed — ``retrieved`` (hits with
multiplicity), ``unique_candidates``, ``tables_probed``, ``truncated`` —
so cost accounting is uniform across applications.  :class:`QueryResult` is
the dataclass base the application results extend;
:class:`~repro.index.backends.CandidateResult` (the raw-index result) is a
tuple-compatible ``NamedTuple`` for backward compatibility but satisfies
the same ``.stats`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.index.backends import CandidateResult, QueryStats

__all__ = ["QueryStats", "QueryResult", "Queryable", "CandidateResult"]


@dataclass(frozen=True)
class QueryResult:
    """Base class for application query results: carries the
    :class:`QueryStats` of the retrieval work behind the answer."""

    stats: QueryStats

    @property
    def retrieved(self) -> int:
        """Hits examined, with multiplicity (the query's work)."""
        return self.stats.retrieved

    @property
    def unique_candidates(self) -> int:
        """Distinct data points among the examined hits."""
        return self.stats.unique_candidates


@runtime_checkable
class Queryable(Protocol):
    """Structural protocol every application index satisfies.

    ``isinstance(index, Queryable)`` holds for :class:`DSHIndex`,
    :class:`AnnulusIndex`, :class:`HyperplaneIndex`, and
    :class:`RangeReportingIndex`; each ``query`` returns an object with a
    ``.stats`` attribute and ``batch_query`` returns one such object per
    query row, element-for-element identical to a ``query`` loop.
    """

    def query(
        self, query_point: np.ndarray
    ) -> Any:  # pragma: no cover - protocol
        """One query point → one ``.stats``-carrying result."""
        ...

    def batch_query(
        self, query_points: np.ndarray
    ) -> Iterable[Any]:  # pragma: no cover - protocol
        """``(n, d)`` query block → one result per row, loop-identical."""
        ...
