"""The distance-sensitive family interface (Definition 1.1).

A :class:`DSHFamily` is a distribution over :class:`HashPair` objects
``(h, g)``: data points are hashed with ``h``, query points with ``g``, and
the collision event is ``h(x) = g(y)``.  Classical (symmetric) LSH families
simply return pairs with ``h is g``.

Hash value convention
---------------------
``h`` and ``g`` map an ``(n, d)`` array of points to an ``(n, c)`` ``int64``
array of *hash components*; a collision means equality of **all** ``c``
components.  Concatenation (Lemma 1.4(a)) stacks component columns, and
mixtures prefix a component recording which sub-family was drawn.  Indexes
serialize component rows to bytes for hash-table bucketing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.cpf import CPF
from repro.utils.rng import ensure_rng, spawn_rngs

__all__ = [
    "CoordinateProjection",
    "HashPair",
    "DSHFamily",
    "SymmetricFamily",
    "as_components",
    "rows_equal",
    "rows_to_keys",
    "rows_to_fingerprints",
]


def as_components(values: np.ndarray) -> np.ndarray:
    """Normalize raw hash output to the canonical ``(n, c)`` int64 layout.

    Accepts ``(n,)`` (single component) or ``(n, c)`` integer arrays.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise ValueError(f"hash values must be 1-D or 2-D, got shape {values.shape}")
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"hash values must be integers, got dtype {values.dtype}")
    return values.astype(np.int64, copy=False)


def rows_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean vector: do the ``i``-th component rows of ``a`` and ``b`` agree?"""
    a = as_components(a)
    b = as_components(b)
    if a.shape != b.shape:
        raise ValueError(f"component shape mismatch: {a.shape} vs {b.shape}")
    return np.all(a == b, axis=1)


def rows_to_keys(a: np.ndarray) -> list[bytes]:
    """Serialize each component row to a hashable ``bytes`` key (for dicts)."""
    a = np.ascontiguousarray(as_components(a))
    return [row.tobytes() for row in a]


# splitmix64 constants (Steele, Lea & Flood 2014) — the increment and the two
# multiply-xorshift rounds of the finalizer.  All arithmetic is modulo 2^64.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MULT_2 = np.uint64(0x94D049BB133111EB)
_FINGERPRINT_SEED = np.uint64(0x51_7CC1B727220A95)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: a bijection on uint64 that mixes
    every input bit into every output bit (~0.5 avalanche per bit)."""
    x = (x + _SM64_GAMMA).astype(np.uint64, copy=False)
    x = (x ^ (x >> np.uint64(30))) * _SM64_MULT_1
    x = (x ^ (x >> np.uint64(27))) * _SM64_MULT_2
    return x ^ (x >> np.uint64(31))


def rows_to_fingerprints(a: np.ndarray) -> np.ndarray:
    """Mix each ``(n, c)`` component row into one ``uint64`` fingerprint.

    The hot-path alternative to :func:`rows_to_keys`: instead of one Python
    ``bytes`` object per row, the whole array is folded column-by-column
    through a splitmix64 chain — ``state := splitmix64(state XOR column)``
    starting from a fixed seed — entirely in vectorized uint64 arithmetic.
    Signed ``int64`` components are reinterpreted bit-for-bit as ``uint64``,
    so negative values and values differing only in the sign/high bits are
    distinct inputs to the mixer (no information is dropped before mixing).

    Collision bound
    ---------------
    ``rows_to_keys`` is injective; a 64-bit fingerprint cannot be.  Because
    each chain step is a bijection of the running state composed with an XOR
    of the fully-mixed next component, two *distinct* rows of equal length
    collide only if an exact 64-bit cancellation occurs along the chain; for
    inputs not specifically crafted by inverting the public mixer this
    behaves like a uniform random 64-bit hash, i.e.

        P[fingerprint(u) == fingerprint(v)]  ~=  2**-64   for rows u != v,

    so a table of ``n`` points sees an expected ``<= n*(n-1)/2 * 2**-64``
    spuriously merged pairs (~6.8e-11 even at ``n = 50_000_000``).  The
    guarantee is statistical, not adversarial: splitmix64 is invertible, so
    a malicious input designer could construct collisions.  The generated
    oracle (``tests/test_oracle.py``) cross-checks the fingerprint-bucketed
    backend against the exact-bytes dict backend's walk, and
    ``tests/test_core_family.py`` probes the structured near-miss patterns
    (high-bit flips, negative components, column swaps) that a weak mixer
    (e.g. a sum of per-column products) would merge.
    """
    a = as_components(a)
    u = np.ascontiguousarray(a).view(np.uint64)
    state = np.full(u.shape[0], _FINGERPRINT_SEED, dtype=np.uint64)
    for j in range(u.shape[1]):
        state = _splitmix64(state ^ u[:, j])
    return state


class CoordinateProjection:
    """The hash ``x -> x[:, columns]``: project points onto fixed coordinates.

    Bit sampling hashes with one coordinate, and a concatenation of
    bit-sampling pairs (Lemma 1.4(a)) with the columns of all its
    sub-pairs in order, so a ``k``-fold power is one column gather
    instead of ``k`` calls.  ``columns`` are coordinates in ``[0, d)``.
    The output is ``(n, len(columns))`` int64 for ``(n, d)`` or ``(d,)``
    input; a point too narrow for a column raises ``ValueError`` naming
    the first such column.  A plain class (no closure), so it pickles.
    """

    def __init__(self, columns: np.ndarray | list[int]) -> None:
        self.columns = np.asarray(columns, dtype=np.intp).ravel()
        # The narrowest point dimension every column fits in.
        self._width = int(self.columns.max(initial=-1)) + 1

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points))
        if points.shape[1] < self._width:
            first = int(self.columns[self.columns >= points.shape[1]][0])
            raise ValueError(
                f"family sampled for dimension > {points.shape[1]}; "
                f"point dimension mismatch (coordinate {first})"
            )
        # take() keeps the rows C-contiguous; points[:, columns] would come
        # out column-major and cost a copy at fingerprinting.
        return points.take(self.columns, axis=1).astype(np.int64)


@dataclass
class HashPair:
    """One sampled pair ``(h, g)`` from a DSH family.

    Attributes
    ----------
    h:
        Data-side hash: ``(n, d) -> (n, c)`` int64 components.
    g:
        Query-side hash with the same output layout.
    meta:
        Optional construction details (thresholds, sampled coordinates, ...)
        for debugging and tests.
    """

    h: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    meta: dict = field(default_factory=dict)

    def hash_data(self, points: np.ndarray) -> np.ndarray:
        """Hash data points; returns canonical ``(n, c)`` components."""
        return as_components(self.h(np.atleast_2d(np.asarray(points))))

    def hash_query(self, points: np.ndarray) -> np.ndarray:
        """Hash query points; returns canonical ``(n, c)`` components."""
        return as_components(self.g(np.atleast_2d(np.asarray(points))))

    def collides(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row-wise collision indicator ``h(x_i) == g(y_i)``."""
        return rows_equal(self.hash_data(x), self.hash_query(y))


class DSHFamily(ABC):
    """A distribution over hash pairs with (optionally) a known CPF."""

    @abstractmethod
    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Draw one ``(h, g)`` pair."""

    def sample_pairs(
        self, n: int, rng: int | np.random.Generator | None = None
    ) -> list[HashPair]:
        """Draw ``n`` independent pairs (reproducibly from one parent seed)."""
        rng = ensure_rng(rng)
        return [self.sample(r) for r in spawn_rngs(rng, n)]

    @property
    def cpf(self) -> CPF | None:
        """The analytic CPF if known, else ``None``."""
        return None

    @property
    def is_symmetric(self) -> bool:
        """Whether sampled pairs always satisfy ``h == g`` (classical LSH)."""
        return False


class SymmetricFamily(DSHFamily):
    """Convenience base for classical LSH families: implement
    :meth:`sample_function` returning a single hash, used for both sides."""

    @abstractmethod
    def sample_function(
        self, rng: np.random.Generator
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Draw one hash function ``(n, d) -> (n, c)``."""

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Draw one hash function and use it for both sides of the pair."""
        rng = ensure_rng(rng)
        func = self.sample_function(rng)
        return HashPair(h=func, g=func)

    @property
    def is_symmetric(self) -> bool:
        """Always ``True``: both sides share one hash function."""
        return True
