"""Hyperplane queries (Section 6.1).

Searching a set of unit vectors for one (approximately) orthogonal to a
query — i.e. closest to the query's hyperplane — is the annulus problem
with the interval centered at inner product 0.  This was previously solved
with ad-hoc asymmetric LSH [52]; in the DSH framework it falls out of the
Section 6.2 family with ``alpha_max = 0``, achieving
``rho* = (1 - alpha^2)/(1 + alpha^2)`` for reporting tolerance ``alpha``
(Section 6.1 discussion).

:class:`HyperplaneIndex` is therefore an :class:`AnnulusIndex` over the
inner-product interval ``(-alpha, alpha)``: it only derives that interval
and its sphere family from ``alpha`` and ``t``, and inherits every query
path (``query``, ``batch_query``, ``query_many``) unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.families.annulus_sphere import AnnulusFamily
from repro.index.annulus import (
    AnnulusIndex,
    _inner_product_proximity,
    sphere_family_for_interval,
)
from repro.index.backends import IndexBackend
from repro.utils.validation import check_in_open_interval

__all__ = ["HyperplaneIndex", "hyperplane_rho"]


def hyperplane_rho(alpha: float) -> float:
    """The query exponent ``rho = (1 - alpha^2)/(1 + alpha^2)`` promised in
    Section 6.1 for returning a vector with ``|<x, q>| <= alpha`` whenever
    an orthogonal vector exists."""
    check_in_open_interval(alpha, 0.0, 1.0, "alpha")
    return (1.0 - alpha**2) / (1.0 + alpha**2)


class HyperplaneIndex(AnnulusIndex):
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
        Early termination after ``budget_factor * L`` retrievals (the
        Theorem 6.1 proof uses 8).
    rng:
        Seed or generator.
    backend:
        Storage backend of the underlying index (``"packed"`` by default).
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
        points = np.atleast_2d(np.asarray(points))
        family, interval = self._band(points.shape[1], alpha, t)
        super().__init__(
            points, family, interval, _inner_product_proximity, n_tables,
            budget_factor, rng, backend, workers,
        )

    @staticmethod
    def _band(
        d: int, alpha: float, t: float
    ) -> tuple[AnnulusFamily, tuple[float, float]]:
        """The Section 6.1 reduction: the sphere family and inner-product
        interval ``(-alpha, alpha)`` a hyperplane index searches — shared
        by this constructor and :func:`repro.api.load_index`, so a loaded
        index regenerates the hash pairs that populated its tables."""
        check_in_open_interval(alpha, 0.0, 1.0, "alpha")
        interval = (-alpha, alpha)
        return sphere_family_for_interval(d, interval, t), interval

    @property
    def alpha(self) -> float:
        """Reporting tolerance: the upper end of ``interval``."""
        return self.interval[1]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(family={type(self._index.family).__name__}, "
            f"L={self._index.n_tables}, backend={self.backend!r}, "
            f"n_points={self.n_points}, alpha={self.alpha})"
        )
