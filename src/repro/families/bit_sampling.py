"""Bit-sampling families on the Hamming cube.

Three primitives:

* :class:`BitSampling` — the classical Indyk–Motwani LSH [32]: sample a
  coordinate ``i`` and hash ``x -> x_i``.  CPF ``f(t) = 1 - t`` in the
  relative Hamming distance ``t``.
* :class:`AntiBitSampling` — the paper's simplest genuinely asymmetric DSH
  (Section 4.1): the pair ``(x -> x_i, y -> 1 - y_i)``.  A collision means
  the sampled bits *differ*, so the CPF is ``f(t) = t`` — monotonically
  increasing in distance.
* :class:`ConstantCollisionFamily` — a distance-independent pair colliding
  with probability ``p`` (shared randomness decides, the points are
  ignored).  Appendix C.3 uses such blocks ("standard hashing that maps data
  and query points to 0 with probability beta ...") to bias and scale the
  other CPFs.  Defined in :mod:`repro.core.combinators` (the CPF
  transforms in core build on it); re-exported here for compatibility.

The helpers :func:`scaled_bit_sampling` and :func:`scaled_anti_bit_sampling`
assemble the scaled variants from Appendix C.3 via Lemma 1.4(b) mixtures:

* scaled bit-sampling: ``f(t) = 1 - scale * t``,
* scaled anti bit-sampling: ``f(t) = scale * t``.
"""

from __future__ import annotations

import numpy as np

from repro.core.combinators import ConstantCollisionFamily, MixtureFamily
from repro.core.cpf import (
    CPF,
    AntiBitSamplingCPF,
    BitSamplingCPF,
)
from repro.core.family import CoordinateProjection, DSHFamily, HashPair
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_probability

__all__ = [
    "BitSampling",
    "AntiBitSampling",
    "ConstantCollisionFamily",
    "scaled_bit_sampling",
    "scaled_anti_bit_sampling",
]


class BitSampling(DSHFamily):
    """Classical bit-sampling LSH: ``h(x) = g(x) = x_i`` for random ``i``.

    Parameters
    ----------
    d:
        Dimension of the Hamming cube.
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = int(d)

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Pick a random coordinate; both sides project onto it.

        Both sides are the same :class:`~repro.core.family.CoordinateProjection`
        (``h is g``), which is what lets a concatenation of bit-sampling
        pairs fuse into one column gather
        (:class:`~repro.core.combinators.ConcatenatedFamily`).
        """
        rng = ensure_rng(rng)
        i = int(rng.integers(0, self.d))
        func = CoordinateProjection([i])
        return HashPair(h=func, g=func, meta={"coordinate": i})

    @property
    def cpf(self) -> CPF:
        """The decreasing CPF ``f(t) = 1 - t``."""
        return BitSamplingCPF()

    @property
    def is_symmetric(self) -> bool:
        """Always ``True``: classical LSH, both sides share the hash."""
        return True


class AntiBitSampling(DSHFamily):
    """Anti bit-sampling (Section 4.1): ``h(x) = x_i``, ``g(y) = 1 - y_i``.

    Collides iff the sampled bits differ, giving the increasing CPF
    ``f(t) = t``.  The paper notes its ``rho_- = Omega(1 / ln c)`` is *not*
    optimal — the sphere constructions achieve ``O(1/c)`` (benchmarked in
    ``bench_sec41_anti_bitsampling``).
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = int(d)

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Pick a random coordinate; the query side negates its bit."""
        rng = ensure_rng(rng)
        i = int(rng.integers(0, self.d))
        project = CoordinateProjection([i])
        return HashPair(
            h=project,
            g=lambda points: 1 - project(points),
            meta={"coordinate": i},
        )

    @property
    def cpf(self) -> CPF:
        """The increasing CPF ``f(t) = t``."""
        return AntiBitSamplingCPF()


def scaled_bit_sampling(d: int, scale: float) -> MixtureFamily:
    """Bit-sampling scaled to CPF ``f(t) = 1 - scale * t`` (Appendix C.3).

    Mixture: with probability ``scale`` use plain bit-sampling
    (``f = 1 - t``), otherwise always collide (``f = 1``).
    """
    check_probability(scale, "scale")
    return MixtureFamily(
        [BitSampling(d), ConstantCollisionFamily(1.0)],
        [scale, 1.0 - scale],
    )


def scaled_anti_bit_sampling(d: int, scale: float, bias: float = 0.0) -> MixtureFamily:
    """Anti bit-sampling with CPF ``f(t) = bias + scale * t`` (Appendix C.3).

    Mixture of plain anti bit-sampling (weight ``scale``), the
    always-collide family (weight ``bias``), and the never-collide family
    (remaining weight).  Requires ``bias + scale <= 1``.
    """
    check_probability(scale, "scale")
    check_probability(bias, "bias")
    if bias + scale > 1.0 + 1e-12:
        raise ValueError(f"bias + scale must be <= 1, got {bias + scale}")
    rest = max(0.0, 1.0 - bias - scale)
    return MixtureFamily(
        [AntiBitSampling(d), ConstantCollisionFamily(1.0), ConstantCollisionFamily(0.0)],
        [scale, bias, rest],
    )
