"""Wrappers that put spans around the library's public calls, and the
stage-by-stage replay of the packed backend's probe.

Nothing here changes what the library computes.  :class:`TracedFamily`
hands out the *same* hash pairs as the family it wraps (it delegates
``sample_pairs``), so an index rebuilt as
``DSHIndex(TracedFamily(index.family), L, rng_from_state(index.pair_rng_state),
backend=TracedPackedBackend(tracer))`` holds identical tables and answers
identically, while every ``hash_query``/``hash_data`` call and every call
into the backend's public methods is timed.  The run checks that identity
on every traced block.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.family import DSHFamily, HashPair, rows_to_fingerprints
from repro.index.backends import (
    BatchHits,
    CandidateResult,
    PackedBackend,
    QueryStats,
    budget_truncation,
    clip_batch_hits,
    first_seen_dedup,
)

from tracing import Tracer


class _TracedPair(HashPair):
    """A sampled pair whose public hash calls are timed."""

    def __init__(self, pair: HashPair, tracer: Tracer) -> None:
        super().__init__(h=pair.h, g=pair.g, meta=pair.meta)
        self._tracer = tracer

    def hash_data(self, points: np.ndarray) -> np.ndarray:
        with self._tracer.span("families.hash_data"):
            return super().hash_data(points)

    def hash_query(self, points: np.ndarray) -> np.ndarray:
        with self._tracer.span("families.hash_query"):
            return super().hash_query(points)


class TracedFamily(DSHFamily):
    """The wrapped family's pairs, drawn from the same generator stream,
    with timed hash calls."""

    def __init__(self, inner: DSHFamily, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def sample(self, rng: int | np.random.Generator | None = None) -> HashPair:
        return _TracedPair(self._inner.sample(rng), self._tracer)

    def sample_pairs(
        self, n: int, rng: int | np.random.Generator | None = None
    ) -> list[HashPair]:
        return [
            _TracedPair(p, self._tracer)
            for p in self._inner.sample_pairs(n, rng)
        ]


class TracedPackedBackend(PackedBackend):
    """The packed backend with its public entry points timed.  The last
    component block it probed (and hit stream it returned) is kept so the
    stage replay can reuse and check against it."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self.last_comps: list[np.ndarray] = []
        self.last_hits: BatchHits | None = None

    def build(self, tables: list[np.ndarray]) -> None:
        with self._tracer.span("backends.build"):
            super().build(tables)

    def batch_query(
        self, comps: list[np.ndarray], max_retrieved: int | None = None
    ) -> list[CandidateResult]:
        self.last_comps = comps
        with self._tracer.span("backends.probe"):
            return super().batch_query(comps, max_retrieved)

    def batch_query_hits(
        self, comps: list[np.ndarray], max_hits: int | None = None
    ) -> BatchHits:
        self.last_comps = comps
        with self._tracer.span("backends.probe"):
            self.last_hits = super().batch_query_hits(comps, max_hits)
        return self.last_hits


def _as_key_column(fingerprints: np.ndarray) -> np.ndarray:
    """A fingerprint vector as a one-component int64 block."""
    return fingerprints.view(np.int64)[:, None]


def fingerprint_backend(tables: list[np.ndarray]) -> PackedBackend:
    """A packed backend keyed by each row's fingerprint instead of its
    components.  Mixing a one-component row is a bijection of its value,
    so its buckets (members and order) are exactly those of a backend
    built on the components; probing it with query fingerprints skips the
    component mixing the replay times as its own stage."""
    backend = PackedBackend()
    backend.build([_as_key_column(rows_to_fingerprints(t)) for t in tables])
    return backend


def replay_probe(
    keyed: PackedBackend,
    comps: list[np.ndarray],
    n_points: int,
    max_retrieved: int | None,
    tracer: Tracer,
) -> list[CandidateResult]:
    """``PackedBackend.batch_query`` rebuilt from public calls, one span per
    stage: fingerprint, bucket lookup + gather (with the Theorem 6.1 budget
    clip), first-seen dedup; the root's self time is result building."""
    n_tables = len(comps)
    with tracer.span("backends.probe.stages"):
        with tracer.span("core.fingerprint"):
            keys = [_as_key_column(rows_to_fingerprints(c)) for c in comps]
        with tracer.span("backends.lookup_gather"):
            block = clip_batch_hits(
                keyed.batch_query_hits(keys), n_tables, max_retrieved
            )
        with tracer.span("backends.dedup"):
            lengths = np.diff(block.offsets)
            stamp = np.empty(n_points, dtype=np.int64)
            positions = np.arange(int(lengths.max(initial=0)), dtype=np.int64)
            ordered = [
                first_seen_dedup(block.segment(i), stamp, positions)
                for i in range(block.n_queries)
            ]
        tables_probed, truncated = budget_truncation(
            block.pre_clip_table_counts, n_tables, max_retrieved
        )
        return [
            CandidateResult(
                found,
                QueryStats(
                    retrieved=int(lengths[i]),
                    unique_candidates=len(found),
                    tables_probed=int(tables_probed[i]),
                    truncated=bool(truncated[i]),
                ),
            )
            for i, found in enumerate(ordered)
        ]


def replay_hits(
    keyed: PackedBackend,
    comps: list[np.ndarray],
    max_hits: int | None,
    tracer: Tracer,
) -> BatchHits:
    """``PackedBackend.batch_query_hits`` as two timed stages: fingerprint,
    then bucket lookup + gather on the fingerprint-keyed backend."""
    with tracer.span("backends.probe.stages"):
        with tracer.span("core.fingerprint"):
            keys = [_as_key_column(rows_to_fingerprints(c)) for c in comps]
        with tracer.span("backends.lookup_gather"):
            return keyed.batch_query_hits(keys, max_hits)


def same_hits(a: BatchHits, b: BatchHits) -> bool:
    """Exact equality of two hit streams, including per-table counts."""
    fields: tuple[str, ...] = ("hits", "offsets", "table_counts", "truncated")
    if not all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields):
        return False
    full_a: Any = a.full_table_counts
    full_b: Any = b.full_table_counts
    if full_a is None or full_b is None:
        return full_a is None and full_b is None
    return bool(np.array_equal(full_a, full_b))
