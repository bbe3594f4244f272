"""Watch and break the index handles a server loads.

:class:`~repro.serving.AsyncIndexServer` imports
:func:`repro.api.load_index` each time it loads a snapshot, so patching
that one function sees every handle the server opens.
"""

from __future__ import annotations

from typing import Any

import repro.api


def spy_on_loads(monkeypatch: Any) -> list[tuple[str, Any]]:
    """Patch :func:`repro.api.load_index` to record every top-level call
    as ``(path, handle)`` in the returned list.  A sharded bundle's
    nested per-shard loads belong to its one outer call."""
    loads: list[tuple[str, Any]] = []
    depth = [0]
    real = repro.api.load_index

    def spy(path: Any, **kwargs: Any) -> Any:
        depth[0] += 1
        try:
            index = real(path, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            loads.append((str(path), index))
        return index

    monkeypatch.setattr(repro.api, "load_index", spy)
    return loads


def fail_once(index: Any, error: BaseException) -> None:
    """Make the next ``batch_query`` call on ``index`` raise ``error``;
    later calls answer normally."""

    def failing_once(*args: Any, **kwargs: Any) -> Any:
        del index.batch_query
        raise error

    index.batch_query = failing_once
