"""Gaussian filter DSH families D+ / D- (Section 2.2, Theorem 1.2, App. A.1).

A pair ``(h, g)`` is defined by a sequence of standard Gaussian projections
``z_1, ..., z_m`` and a threshold ``t``:

* ``h(x)  = min({i : <z_i, x> >= t} u {m+1})`` — first spherical cap
  containing ``x``,
* D+:  ``g(y) = min({i : <z_i, y> >= t} u {m+2})`` — same caps (increasing
  CPF in the inner product),
* D-:  ``g(y) = min({i : <z_i, y> <= -t} u {m+2})`` — the *diametrically
  opposite* caps, obtained by negating the query point (decreasing CPF).

The distinct sentinels ``m+1`` / ``m+2`` guarantee no collision when no cap
captures a point.  With ``m = ceil(2 t^3 / p')`` (Lemma A.5, ``p'`` the
Szarek–Werner lower bound on the Gaussian tail) the capture probability is
``1 - e^{-2 t^3}`` and Theorem 1.2 holds:

    ln(1/f(alpha)) = (1 +- alpha)/(1 -+ alpha) * t^2/2 + Theta(log t).

The exact CPF has the closed form (Appendix A.1)

    f(alpha) = (1 - (1 - p_union)^m) * p_joint / p_union,

where ``p_joint = Pr[X >= t, Y >= t]`` for a standard bivariate normal pair
with correlation ``alpha`` (correlation ``-alpha`` for D-) and
``p_union = 2 Pr[X >= t] - p_joint``; we evaluate ``p_joint`` by numerical
quadrature, and also expose the Lemma A.5 analytic bounds.

Memory contract.  Each sampled pair keeps its first projection chunk,
``min(m, 2048) x d`` float64, drawn lazily from the pair's seed on the first
``h`` or ``g`` call and shared by both sides: ``8 * d * min(m, 2048)`` bytes
per filter, held for the pair's lifetime.  An annulus index holds ``2 L``
filters, and a served snapshot generation holds one copy, shared by
every batch that runs on it: ~3.4 MB for
``L = 32``, ``d = 32``, ``t = 1.8`` (``m = 414``), but 12.6 MB per filter and
~0.8 GB per ``L = 32`` index at ``d = 768`` once ``m >= 2048``.  Later chunks,
needed only when ``m > 2048``, are replayed from the generator state saved
after the first chunk, so chunk 0 is never redrawn and the cache never grows
past one chunk.  An evaluation walks the chunks once, testing the points
still uncaptured in blocks of ``_ROWS`` rows, so its projection scratch is
bounded by ``_ROWS x min(m, 2048)`` whatever the number of points.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np
from scipy import integrate
from scipy.stats import norm

from repro.core.cpf import CPF
from repro.core.family import DSHFamily, HashPair
from repro.utils.rng import ensure_rng, rng_from_state, rng_state
from repro.utils.validation import check_in_open_interval, check_positive

__all__ = [
    "szarek_werner_lower_bound",
    "default_num_projections",
    "joint_tail_probability",
    "log_joint_tail_probability",
    "filter_collision_probability",
    "log_filter_collision_probability",
    "GaussianFilterCPF",
    "GaussianFilterFamily",
    "cpf_upper_bound",
    "cpf_lower_bound",
    "theorem12_log_inv_cpf",
]

_CHUNK = 2048
_ROWS = 2048


def szarek_werner_lower_bound(t: float) -> float:
    """Lemma A.2 lower bound ``p' = phi(t) / (t + 1) <= Pr[Z >= t]``."""
    check_positive(t, "t")
    return float(norm.pdf(t) / (t + 1.0))


def default_num_projections(t: float) -> int:
    """``m = ceil(2 t^3 / p')`` — the choice in Lemma A.5 making the
    capture probability at least ``1 - e^{-2 t^3}``."""
    check_positive(t, "t")
    return int(np.ceil(2.0 * t**3 / szarek_werner_lower_bound(t)))


def joint_tail_probability(alpha: float, t: float) -> float:
    """``Pr[X >= t, Y >= t]`` for standard bivariate normal correlation ``alpha``.

    Evaluated as ``int_t^inf phi(z) Phi-bar((t - alpha z)/sqrt(1-alpha^2)) dz``
    by adaptive quadrature; exact limits at ``alpha = +-1``.
    """
    check_positive(t, "t")
    if alpha >= 1.0 - 1e-12:
        return float(norm.sf(t))
    if alpha <= -1.0 + 1e-12:
        return 0.0
    scale = np.sqrt(1.0 - alpha**2)

    def integrand(z: float) -> float:
        return norm.pdf(z) * norm.sf((t - alpha * z) / scale)

    value, _ = integrate.quad(integrand, t, np.inf, limit=200)
    return float(value)


def log_joint_tail_probability(alpha: float, t: float) -> float:
    """``ln Pr[X >= t, Y >= t]`` — numerically stable for any correlation.

    Works in log space throughout (``logpdf``/``logsf`` + a log-domain
    trapezoidal sum), so it stays finite even when the probability
    underflows ``float64`` (e.g. ``alpha`` near ``-1`` at large ``t``,
    where ``ln p`` can be in the hundreds of negative nats).
    """
    check_positive(t, "t")
    if alpha >= 1.0 - 1e-12:
        return float(norm.logsf(t))
    if alpha <= -1.0 + 1e-12:
        return float("-inf")
    scale = np.sqrt(1.0 - alpha**2)
    z = np.linspace(t, t + 12.0, 6001)
    log_integrand = norm.logpdf(z) + norm.logsf((t - alpha * z) / scale)
    # Trapezoid in log domain: logsumexp of sample values + step size.
    m = float(np.max(log_integrand))
    if not np.isfinite(m):
        return float("-inf")
    weights = np.full(z.size, 1.0)
    weights[0] = weights[-1] = 0.5
    total = float(np.log(np.sum(weights * np.exp(log_integrand - m))))
    return m + total + float(np.log(z[1] - z[0]))


def filter_collision_probability(
    alpha: float, t: float, m: int | None = None, negated: bool = False
) -> float:
    """Exact CPF of D+ (or D- with ``negated=True``) at inner product ``alpha``."""
    check_in_open_interval(alpha, -1.0, 1.0, "alpha")
    if m is None:
        m = default_num_projections(t)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    effective_alpha = -alpha if negated else alpha
    p_single = float(norm.sf(t))
    p_joint = joint_tail_probability(effective_alpha, t)
    p_union = 2.0 * p_single - p_joint
    if p_union <= 0.0:
        return 0.0
    captured = 1.0 - (1.0 - p_union) ** m
    return float(captured * p_joint / p_union)


def log_filter_collision_probability(
    alpha: float, t: float, m: int | None = None, negated: bool = False
) -> float:
    """``ln f(alpha)`` for the filter family — stable in the deep tail.

    Matches ``ln(filter_collision_probability(...))`` whenever the latter
    does not underflow; returns finite values far beyond that regime (used
    by the Section 4.1 rho comparisons, where ``ln f`` reaches -900).
    """
    check_in_open_interval(alpha, -1.0, 1.0, "alpha")
    if m is None:
        m = default_num_projections(t)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    effective_alpha = -alpha if negated else alpha
    p_single = float(norm.sf(t))
    log_p_joint = log_joint_tail_probability(effective_alpha, t)
    p_joint = float(np.exp(log_p_joint)) if log_p_joint > -700 else 0.0
    p_union = 2.0 * p_single - p_joint
    if p_union <= 0.0 or not np.isfinite(log_p_joint):
        return float("-inf")
    captured = 1.0 - (1.0 - p_union) ** m
    return float(np.log(captured) + log_p_joint - np.log(p_union))


class GaussianFilterCPF(CPF):
    """Analytic CPF of the Gaussian filter family (similarity argument)."""

    def __init__(self, t: float, m: int | None = None, negated: bool = False) -> None:
        check_positive(t, "t")
        if m is None:
            m = default_num_projections(t)
        direction = "D-" if negated else "D+"
        super().__init__("similarity", f"filter {direction}(t={t:g}, m={m})")
        self.t = float(t)
        self.m = int(m)
        self.negated = bool(negated)

    def _evaluate(self, values: np.ndarray) -> np.ndarray:
        flat = np.atleast_1d(values).ravel()
        out = np.array(
            [
                filter_collision_probability(
                    float(np.clip(a, -1 + 1e-12, 1 - 1e-12)),
                    self.t,
                    self.m,
                    self.negated,
                )
                for a in flat
            ]
        )
        return out.reshape(np.shape(values))


class _Projections:
    """The ``m`` Gaussian projections of one sampled filter pair.

    Chunk 0 (``min(m, _CHUNK)`` rows) is drawn from ``seed`` on first use and
    kept, together with the generator state after it; later chunks are
    replayed from that state on every walk.  Concurrent first uses may each
    draw chunk 0, but the draws are identical, so whichever is kept is the
    same.
    """

    __slots__ = ("_seed", "_m", "_d", "_head")

    def __init__(self, seed: int, m: int, d: int) -> None:
        self._seed = seed
        self._m = m
        self._d = d
        self._head: tuple[np.ndarray, dict[str, Any]] | None = None

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(offset, z)`` for consecutive chunks, ``z`` of shape ``(k, d)``."""
        head = self._head
        if head is None:
            gen = ensure_rng(self._seed)
            first = gen.standard_normal((min(self._m, _CHUNK), self._d))
            head = self._head = (first, rng_state(gen))
        first, state = head
        yield 0, first
        offset = first.shape[0]
        if offset < self._m:
            gen = rng_from_state(state)
            while offset < self._m:
                k = min(_CHUNK, self._m - offset)
                yield offset, gen.standard_normal((k, self._d))
                offset += k


class GaussianFilterFamily(DSHFamily):
    """The filter family of Section 2.2.

    Parameters
    ----------
    d:
        Ambient dimension (points on ``S^{d-1}``).
    t:
        Cap threshold ``t > 0``; larger ``t`` = smaller caps = faster CPF
        decay (the "fine tuning" parameter of Theorem 1.2).
    m:
        Number of projections; default ``ceil(2 t^3 / p')`` per Lemma A.5.
    negated:
        ``False`` for D+ (CPF increasing in the inner product), ``True``
        for D- (decreasing; the query point is hashed with the opposite
        caps ``<z_i, y> <= -t``).

    Notes
    -----
    The sampling / storage / evaluation complexity ``O(d t^4 e^{t^2/2})``
    from Theorem 1.2 shows up here as the ``m = O(t^4 e^{t^2/2})``
    projections.  A sampled pair caches only its first chunk of
    ``min(m, 2048)`` projections (drawn on first use, ``8 d min(m, 2048)``
    bytes kept for the pair's lifetime); later chunks are
    replayed from the generator state saved after it, and evaluation stops
    at each point's first hit.  Points are evaluated ``_ROWS`` rows at a
    time, so the scratch per call is ``_ROWS x min(m, 2048)`` floats.
    """

    def __init__(self, d: int, t: float, m: int | None = None, negated: bool = False) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        check_positive(t, "t")
        self.d = int(d)
        self.t = float(t)
        self.m = int(m) if m is not None else default_num_projections(t)
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        self.negated = bool(negated)

    def _first_hit(
        self, points: np.ndarray, projections: _Projections, mode: str
    ) -> np.ndarray:
        """First projection index hitting each point, or ``m`` if none.

        ``mode`` is ``"ge"`` (``<z, x> >= t``) or ``"le"`` (``<z, x> <= -t``).
        Chunk-outer, block-inner: each chunk is produced once per call and
        tested against the unresolved points ``_ROWS`` at a time.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.d:
            raise ValueError(f"expected dimension {self.d}, got {pts.shape[1]}")
        result = np.full(pts.shape[0], self.m, dtype=np.int64)
        unresolved = np.arange(pts.shape[0])
        for offset, z in projections.chunks():
            missed = np.empty(unresolved.size, dtype=bool)
            for start in range(0, unresolved.size, _ROWS):
                rows = unresolved[start : start + _ROWS]
                proj = pts[rows] @ z.T
                hit = proj >= self.t if mode == "ge" else proj <= -self.t
                any_hit = hit.any(axis=1)
                first = np.argmax(hit, axis=1)
                found = np.flatnonzero(any_hit)
                result[rows[found]] = offset + first[found]
                missed[start : start + _ROWS] = ~any_hit
            unresolved = unresolved[missed]
            if not unresolved.size:
                break
        return result

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        """Draw one filter pair; its projections replay from a stored seed."""
        rng = ensure_rng(rng)
        seed = int(rng.integers(0, 2**63 - 1))
        projections = _Projections(seed, self.m, self.d)
        query_mode = "le" if self.negated else "ge"

        def h(points: np.ndarray) -> np.ndarray:
            hits = self._first_hit(points, projections, "ge")
            # Sentinel m+1 for "not captured" on the data side.
            return np.where(hits == self.m, self.m + 1, hits)

        def g(points: np.ndarray) -> np.ndarray:
            hits = self._first_hit(points, projections, query_mode)
            # Sentinel m+2 on the query side: no spurious collisions.
            return np.where(hits == self.m, self.m + 2, hits)

        return HashPair(h=h, g=g, meta={"seed": seed, "t": self.t, "m": self.m})

    @property
    def cpf(self) -> CPF:
        """The exact analytic filter CPF (Appendix A.1 closed form)."""
        return GaussianFilterCPF(self.t, self.m, self.negated)


def cpf_upper_bound(alpha: float, t: float, negated: bool = False) -> float:
    """Lemma A.5 upper bound ``f-bar_+`` on the filter CPF.

    For D- pass ``negated=True`` (evaluates the bound at ``-alpha``,
    Lemma A.1).
    """
    check_in_open_interval(alpha, -1.0, 1.0, "alpha")
    check_positive(t, "t")
    if negated:
        alpha = -alpha
    return float(
        (1.0 / np.sqrt(2 * np.pi))
        * ((t + 1.0) / t**2)
        * ((1.0 + alpha) ** 2 / np.sqrt(1.0 - alpha**2))
        * np.exp(-((1.0 - alpha) / (1.0 + alpha)) * t**2 / 2.0)
    )


def cpf_lower_bound(alpha: float, t: float, negated: bool = False) -> float:
    """Lemma A.5 lower bound on the filter CPF (can be negative for small
    ``t``, in which case it is vacuous).

    Note: the bound *stated* in Lemma A.5 reads
    ``(1 - corr) (t/(t+1)) f-bar_+ - 2 e^{-t^3}``, but the proof bounds the
    conditional collision probability by ``Pr[joint] / (2 Pr[single])`` —
    the displayed statement drops that factor ``1/2`` (the proof's inline
    inequality keeps it).  We implement the proof's (correct) version
    ``(1 - corr) (t/(2(t+1))) f-bar_+ - 2 e^{-t^3}``, which the exact CPF
    satisfies everywhere.
    """
    check_in_open_interval(alpha, -1.0, 1.0, "alpha")
    check_positive(t, "t")
    if negated:
        alpha = -alpha
    leading = 1.0 - (2.0 - alpha) * (1.0 + alpha) / ((1.0 - alpha) * t**2)
    return float(
        leading * (t / (2.0 * (t + 1.0))) * cpf_upper_bound(alpha, t)
        - 2.0 * np.exp(-(t**3))
    )


def theorem12_log_inv_cpf(alpha: float, t: float, negated: bool = True) -> float:
    """Theorem 1.2 / Theorem A.6 leading term of ``ln(1/f(alpha))``.

    ``(1+alpha)/(1-alpha) * t^2/2`` for D- (default), the mirrored
    expression for D+; the ``Theta(log t)`` term is dropped.
    """
    check_in_open_interval(alpha, -1.0, 1.0, "alpha")
    check_positive(t, "t")
    if negated:
        return (1.0 + alpha) / (1.0 - alpha) * t**2 / 2.0
    return (1.0 - alpha) / (1.0 + alpha) * t**2 / 2.0
