"""One frozen bag for every serving knob.

Serving configuration used to travel as a sprawl of loose keywords —
``mmap=`` / ``workers=`` / ``verify=`` / ``on_shard_failure=`` on the
loaders, ``max_retries`` / ``retry_backoff_s`` as post-construction
attributes, ``timeout=`` per call — and each new entry point had to
re-plumb all of them.  :class:`ServingOptions` consolidates the set
into a single frozen dataclass that :func:`repro.api.load_index`,
:meth:`repro.serving.sharded.ShardedIndex.load`, and
:class:`repro.serving.server.AsyncIndexServer` all accept as
``options=``, with a dict/JSON round-trip mirroring
:class:`repro.api.IndexSpec` so a deployment can pin *what to build*
and *how to serve it* in the same config file.  The loose keywords are
gone: passing one raises ``TypeError``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.index.persistence import VERIFY_MODES

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RETRY_BACKOFF_S",
    "FAILURE_MODES",
    "ServingOptions",
]

DEFAULT_MAX_RETRIES = 2
DEFAULT_RETRY_BACKOFF_S = 0.05

FAILURE_MODES = ("raise", "degrade")


@dataclasses.dataclass(frozen=True)
class ServingOptions:
    """Frozen serving configuration shared by every query surface.

    ``workers``
        Process-pool size for sharded serving (``None`` = query shards
        in-process on the caller's thread).  Must be ``None`` for
        single-file indexes.
    ``mmap``
        Memory-map array payloads on load (O(1) cold start) instead of
        materialising them.
    ``verify``
        Integrity mode for every bundle load — at load time and, for pool
        serving, on every worker-side shard (re)load: ``"eager"``
        (re-checksum every member), ``"lazy"`` (the O(1) structural
        check: recorded file size, readable archive), or ``"off"``.
    ``on_shard_failure``
        ``"raise"`` surfaces a dead shard as :class:`PoolRecoveryError`;
        ``"degrade"`` serves from the surviving shards and marks results
        ``stats.degraded``.  Must be ``"raise"`` for single-file indexes.
    ``timeout``
        Per-request deadline in seconds for sharded pool serving
        (``None`` = wait indefinitely).
    ``max_retries`` / ``retry_backoff_s``
        Crash-recovery budget per request: at most ``max_retries`` retry
        rounds of the failed ``(shard, chunk)`` tasks, with an
        exponential backoff of ``retry_backoff_s * 2**(round - 1)``
        seconds before round ``round``.
    """

    workers: int | None = None
    mmap: bool = True
    verify: str = "lazy"
    on_shard_failure: str = "raise"
    timeout: float | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S

    def __post_init__(self) -> None:
        """Validate every field eagerly so bad configs fail at build time."""
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be None or >= 1, got {self.workers}")
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify mode {self.verify!r}; expected one of {VERIFY_MODES}"
            )
        if self.on_shard_failure not in FAILURE_MODES:
            raise ValueError(
                f"unknown on_shard_failure mode {self.on_shard_failure!r}; "
                f"expected one of {FAILURE_MODES}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be None or > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able dict of every field (round-trips via :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServingOptions":
        """Rebuild options from a :meth:`to_dict` payload.

        Unknown keys raise ``ValueError`` (a typo'd knob should fail the
        deploy, not silently fall back to a default).
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown ServingOptions field(s) {unknown}; expected a "
                f"subset of {sorted(known)}"
            )
        return cls(**dict(payload))
