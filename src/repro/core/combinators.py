"""Family combinators — Lemma 1.4 and the point-transform trick.

Lemma 1.4 (proved in Appendix C.1 for the asymmetric setting):

(a) concatenating families multiplies their CPFs:
    ``f(x) = prod_i f_i(x)`` — :class:`ConcatenatedFamily`,
    with the special case of powering one family — :class:`PoweredFamily`;
(b) drawing a family from a probability distribution averages the CPFs:
    ``f(x) = sum_i p_i f_i(x)`` — :class:`MixtureFamily`.

:class:`TransformedFamily` implements the paper's other basic move: apply
deterministic maps to points before hashing.  Negating the query point turns
an LSH into an anti-LSH (Sections 2.1–2.2), and the Valiant embeddings turn
angular LSH into polynomial DSH (Theorem 5.1).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.cpf import CPF, ConstantCPF, MixtureCPF, PowerCPF, ProductCPF
from repro.core.family import (
    CoordinateProjection,
    DSHFamily,
    HashPair,
    as_components,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_probability

__all__ = [
    "ConcatenatedFamily",
    "ConcatenatedHash",
    "ConstantCollisionFamily",
    "PoweredFamily",
    "MixtureFamily",
    "TransformedFamily",
    "negate_queries",
]


class ConstantCollisionFamily(DSHFamily):
    """A pair colliding with probability ``p`` independent of the points.

    The shared randomness drawn at sampling time decides: with probability
    ``p`` both sides hash everything to ``0`` (always collide), otherwise
    the data side hashes to ``0`` and the query side to ``1`` (never
    collide).  CPF: the constant ``p``.

    These are the "standard hashing" blocks of Appendix C.3 used to add a
    bias term to a CPF, and they also realize ``P(t) = a_0`` terms.  It
    lives here with the other combinators (not in
    :mod:`repro.families.bit_sampling`, which re-exports it) because the
    CPF transforms in :mod:`repro.core.transforms` build on it — a
    distance-independent block has no layer above core.
    """

    def __init__(self, p: float, arg_kind: str = "relative_distance") -> None:
        self.p = check_probability(p, "p")
        self._arg_kind = arg_kind

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Flip the shared coin: collide everywhere or nowhere."""
        rng = ensure_rng(rng)
        collide = bool(rng.random() < self.p)

        def h(points: np.ndarray) -> np.ndarray:
            n = np.atleast_2d(np.asarray(points)).shape[0]
            return np.zeros(n, dtype=np.int64)

        def g(points: np.ndarray) -> np.ndarray:
            n = np.atleast_2d(np.asarray(points)).shape[0]
            return (
                np.zeros(n, dtype=np.int64)
                if collide
                else np.ones(n, dtype=np.int64)
            )

        return HashPair(h=h, g=g, meta={"collide": collide})

    @property
    def cpf(self) -> CPF:
        """The constant CPF ``f == p``."""
        return ConstantCPF(self.p, self._arg_kind)


def _combined_cpf_or_none(
    families: Sequence[DSHFamily], builder: Callable[[list[CPF]], CPF]
) -> CPF | None:
    cpfs = [fam.cpf for fam in families]
    if any(c is None for c in cpfs):
        return None
    try:
        return builder(cpfs)  # type: ignore[arg-type]
    except ValueError:
        # Mixed argument kinds: the combined family is still usable, it just
        # has no single-argument analytic CPF.
        return None


class ConcatenatedHash:
    """The hash ``x -> hstack(part(x) for part in parts)`` of one side of
    a concatenated pair (Lemma 1.4(a)): each part's components, as
    ``(n, c_i)`` int64 columns, side by side in order.

    A plain class (no closure), as
    :class:`~repro.core.family.CoordinateProjection` is, so a batched
    query path can see the sub-hashes it stacks: the Gaussian filters of
    a sphere annulus pair are evaluated together by
    :class:`~repro.families.filters.FilterStack`.
    """

    def __init__(
        self, parts: Sequence[Callable[[np.ndarray], np.ndarray]]
    ) -> None:
        self.parts = list(parts)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points))
        return np.hstack([as_components(part(points)) for part in self.parts])


class ConcatenatedFamily(DSHFamily):
    """Lemma 1.4(a): hash with every sub-family; collide iff all collide.

    The sampled pair stacks the component columns of each sub-pair, so the
    collision event is the conjunction of sub-collisions and the CPF is the
    product of sub-CPFs.

    Fusion rule: when every sub-pair hashes both sides with one
    :class:`~repro.core.family.CoordinateProjection` (``h is g``, as bit
    sampling does), the stacked columns are exactly one projection onto
    the sub-pairs' coordinates in order, so the pair is that single
    projection: one column gather instead of one call per sub-pair.
    Any other sub-pair (an asymmetric one such as anti bit-sampling
    included) keeps the per-sub-pair ``hstack``: each side is a
    :class:`ConcatenatedHash` over the sub-pairs' hashes on that side.
    The sub-pairs are drawn from the same spawned generators either way.
    """

    def __init__(self, families: Sequence[DSHFamily]) -> None:
        self.families = list(families)
        if not self.families:
            raise ValueError("need at least one family")

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Draw independent sub-pairs and stack their hash components."""
        rng = ensure_rng(rng)
        pairs = [fam.sample(r) for fam, r in zip(self.families, spawn_rngs(rng, len(self.families)))]
        meta = {"parts": [p.meta for p in pairs]}
        projections = [
            p.h for p in pairs
            if p.h is p.g and isinstance(p.h, CoordinateProjection)
        ]
        if len(projections) == len(pairs):
            fused = CoordinateProjection(
                np.concatenate([proj.columns for proj in projections])
            )
            return HashPair(h=fused, g=fused, meta=meta)

        return HashPair(
            h=ConcatenatedHash([p.h for p in pairs]),
            g=ConcatenatedHash([p.g for p in pairs]),
            meta=meta,
        )

    @property
    def cpf(self) -> CPF | None:
        """Product of the sub-CPFs (``None`` if any sub-CPF is unknown)."""
        return _combined_cpf_or_none(self.families, ProductCPF)

    @property
    def is_symmetric(self) -> bool:
        """Symmetric iff every sub-family is symmetric."""
        return all(fam.is_symmetric for fam in self.families)


class PoweredFamily(ConcatenatedFamily):
    """``k``-fold concatenation of one family: CPF ``f**k``.

    This is the standard amplification ("powering") step used to push
    collision probabilities below ``1/n`` (remark after Theorem 6.1).
    """

    def __init__(self, base: DSHFamily, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__([base] * k)
        self.base = base
        self.k = int(k)

    @property
    def cpf(self) -> CPF | None:
        """``f**k`` for base CPF ``f`` (``None`` if the base has none)."""
        base_cpf = self.base.cpf
        return None if base_cpf is None else PowerCPF(base_cpf, self.k)


class MixtureFamily(DSHFamily):
    """Lemma 1.4(b): draw sub-family ``i`` with probability ``p_i``.

    The index of the drawn sub-family is prepended as an extra hash
    component; both sides of the pair share it, so cross-family collisions
    are impossible and the CPF is exactly ``sum_i p_i f_i``.
    """

    def __init__(self, families: Sequence[DSHFamily], weights: Sequence[float]) -> None:
        self.families = list(families)
        self.weights = np.asarray(weights, dtype=np.float64).ravel()
        if len(self.families) != self.weights.size or not self.families:
            raise ValueError("families and weights must be equally sized, non-empty")
        if np.any(self.weights < 0) or not np.isclose(self.weights.sum(), 1.0, atol=1e-9):
            raise ValueError(f"weights must form a probability vector, got {weights}")

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Draw one sub-family by weight; its index tags the components."""
        rng = ensure_rng(rng)
        index = int(rng.choice(len(self.families), p=self.weights))
        inner = self.families[index].sample(rng)

        def h(points: np.ndarray) -> np.ndarray:
            comps = inner.hash_data(points)
            tag = np.full((comps.shape[0], 1), index, dtype=np.int64)
            return np.hstack([tag, comps])

        def g(points: np.ndarray) -> np.ndarray:
            comps = inner.hash_query(points)
            tag = np.full((comps.shape[0], 1), index, dtype=np.int64)
            return np.hstack([tag, comps])

        return HashPair(h=h, g=g, meta={"mixture_index": index, **inner.meta})

    @property
    def cpf(self) -> CPF | None:
        """Weighted mixture of the sub-CPFs (``None`` if any is unknown)."""
        return _combined_cpf_or_none(
            self.families, lambda cpfs: MixtureCPF(cpfs, self.weights)
        )

    @property
    def is_symmetric(self) -> bool:
        """Symmetric iff every sub-family is symmetric."""
        return all(fam.is_symmetric for fam in self.families)


class TransformedFamily(DSHFamily):
    """Precompose a family with deterministic data/query point maps.

    Sampling draws ``(h, g)`` from ``base`` and returns
    ``(h o data_map, g o query_map)``.  With ``data_map = identity`` and
    ``query_map = negation`` this is exactly the paper's "negate the query
    point" construction; with the Valiant maps it is Theorem 5.1.

    Parameters
    ----------
    base:
        The underlying family.
    data_map, query_map:
        Vectorized maps ``(n, d) -> (n, d')`` applied before hashing.
    cpf:
        Analytic CPF of the *transformed* family, if known (the base CPF
        generally does not survive the transform).
    """

    def __init__(
        self,
        base: DSHFamily,
        data_map: Callable[[np.ndarray], np.ndarray] | None = None,
        query_map: Callable[[np.ndarray], np.ndarray] | None = None,
        cpf: CPF | None = None,
    ) -> None:
        self.base = base
        self.data_map = data_map
        self.query_map = query_map
        self._cpf = cpf

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Draw from ``base`` and precompose the point maps."""
        inner = self.base.sample(rng)
        data_map = self.data_map
        query_map = self.query_map

        def h(points: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(points))
            if data_map is not None:
                pts = data_map(pts)
            return as_components(inner.h(pts))

        def g(points: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(points))
            if query_map is not None:
                pts = query_map(pts)
            return as_components(inner.g(pts))

        return HashPair(h=h, g=g, meta=inner.meta)

    @property
    def cpf(self) -> CPF | None:
        """The CPF supplied at construction (``None`` when unknown)."""
        return self._cpf

    @property
    def is_symmetric(self) -> bool:
        """Symmetric only when no point map is applied to either side."""
        # Even if the base is symmetric, different point maps break symmetry.
        return (
            self.base.is_symmetric
            and self.data_map is None
            and self.query_map is None
        )


def negate_queries(base: DSHFamily, cpf: CPF | None = None) -> TransformedFamily:
    """The paper's anti-LSH trick: hash queries at ``-y`` (Sections 2.1/2.2).

    For a symmetric sphere family with CPF ``f(alpha)`` the result has CPF
    ``alpha -> f(-alpha)``.
    """
    return TransformedFamily(
        base, query_map=lambda pts: -np.asarray(pts, dtype=np.float64), cpf=cpf
    )
