"""One frozen bag for every serving knob.

Serving configuration used to travel as a sprawl of loose keywords —
``mmap=`` / ``workers=`` / ``verify=`` on the loaders — and each new
entry point had to re-plumb all of them.  :class:`ServingOptions`
consolidates the set into a single frozen dataclass that
:func:`repro.api.load_index`,
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

__all__ = ["ServingOptions"]


@dataclasses.dataclass(frozen=True)
class ServingOptions:
    """Frozen serving configuration shared by every query surface.

    ``workers``
        Selects nothing: sharded indexes are always served in-process.
        It is still validated (``None`` or ``>= 1``, and ``None`` for
        single-file indexes) only because the ``sharded-pool`` benchmark
        workload passes ``workers=2``; the next change to that benchmark
        removes it.
    ``mmap``
        Memory-map array payloads on load (O(1) cold start) instead of
        materialising them.
    ``verify``
        Integrity mode for every bundle load, shard bundles included:
        ``"eager"`` (re-checksum every member), ``"lazy"`` (the O(1)
        structural check: recorded file size, readable archive), or
        ``"off"``.
    """

    workers: int | None = None
    mmap: bool = True
    verify: str = "lazy"

    def __post_init__(self) -> None:
        """Validate every field eagerly so bad configs fail at build time."""
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be None or >= 1, got {self.workers}")
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify mode {self.verify!r}; expected one of {VERIFY_MODES}"
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
