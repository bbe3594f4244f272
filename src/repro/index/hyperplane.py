"""Hyperplane queries (Section 6.1).

Searching a set of unit vectors for one (approximately) orthogonal to a
query — i.e. closest to the query's hyperplane — is the annulus problem
with the interval centered at inner product 0.  This was previously solved
with ad-hoc asymmetric LSH [52]; in the DSH framework it falls out of the
Section 6.2 family with ``alpha_max = 0``, achieving
``rho* = (1 - alpha^2)/(1 + alpha^2)`` for reporting tolerance ``alpha``
(Section 6.1 discussion).

:class:`HyperplaneIndex` is :class:`~repro.index.queryable.Queryable`:
``query`` / ``batch_query`` delegate to the underlying annulus machinery,
so batched hyperplane queries ride the same vectorized multi-query path.
"""

from __future__ import annotations

import numpy as np

from repro.index.annulus import AnnulusIndex, AnnulusQueryResult, sphere_annulus_index
from repro.index.backends import IndexBackend
from repro.utils.validation import check_in_open_interval

__all__ = ["HyperplaneIndex", "hyperplane_rho"]


def hyperplane_rho(alpha: float) -> float:
    """The query exponent ``rho = (1 - alpha^2)/(1 + alpha^2)`` promised in
    Section 6.1 for returning a vector with ``|<x, q>| <= alpha`` whenever
    an orthogonal vector exists."""
    check_in_open_interval(alpha, 0.0, 1.0, "alpha")
    return (1.0 - alpha**2) / (1.0 + alpha**2)


class HyperplaneIndex:
    """Find data vectors approximately orthogonal to a query vector.

    Parameters
    ----------
    points:
        Unit vectors, shape ``(n, d)``.
    alpha:
        Reporting tolerance: returned points satisfy ``|<x, q>| <= alpha``.
    t:
        Filter threshold of the underlying annulus family.
    n_tables:
        Repetition count ``L``.
    budget_factor:
        Early termination after ``budget_factor * L`` retrievals
        (forwarded to :class:`AnnulusIndex`; the Theorem 6.1 proof uses 8).
    rng:
        Seed or generator.
    backend:
        Storage backend forwarded to the underlying index (``"packed"`` by
        default).
    workers:
        Thread count for the build's per-table hashing; ``None`` hashes
        serially.
    """

    def __init__(
        self,
        points: np.ndarray,
        alpha: float,
        t: float,
        n_tables: int,
        budget_factor: float = 8.0,
        rng: int | np.random.Generator | None = None,
        backend: str | IndexBackend = "packed",
        workers: int | None = None,
    ) -> None:
        check_in_open_interval(alpha, 0.0, 1.0, "alpha")
        self.alpha = float(alpha)
        self._annulus: AnnulusIndex = sphere_annulus_index(
            points,
            alpha_interval=(-alpha, alpha),
            t=t,
            n_tables=n_tables,
            budget_factor=budget_factor,
            rng=rng,
            backend=backend,
            workers=workers,
        )

    @classmethod
    def _restore(cls, *, alpha: float, annulus: AnnulusIndex) -> "HyperplaneIndex":
        """Persistence hook: wrap an already-revived annulus index."""
        self = object.__new__(cls)
        self.alpha = float(alpha)
        self._annulus = annulus
        return self

    @property
    def backend(self) -> str:
        """Name of the underlying storage backend."""
        return self._annulus.backend

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._annulus.n_points

    def __repr__(self) -> str:
        inner = self._annulus._index
        return (
            f"{type(self).__name__}(family={type(inner.family).__name__}, "
            f"L={inner.n_tables}, backend={self.backend!r}, "
            f"n_points={self.n_points}, alpha={self.alpha})"
        )

    def query(self, query_point: np.ndarray) -> AnnulusQueryResult:
        """Return a point with ``|<x, q>| <= alpha`` if the search succeeds."""
        return self._annulus.query(query_point)

    def batch_query(self, query_points: np.ndarray) -> list[AnnulusQueryResult]:
        """Run :meth:`query` for every row of ``query_points`` through the
        vectorized annulus multi-query path (identical results to a loop)."""
        return self._annulus.batch_query(query_points)
