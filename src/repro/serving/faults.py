"""Fault-injection hooks for chaos-testing the serving path.

Production failure modes — a pool worker segfaulting or hanging
mid-request, a shard bundle rotting on disk or vanishing — are exactly
the ones unit tests never hit by accident.  This
module makes them injectable on demand so ``tests/test_serving_faults.py``
and ``benchmarks/bench_fault_recovery.py`` can drive the recovery
machinery in :mod:`repro.serving.sharded` deterministically.

Two mechanisms:

**Fault points** — the serving code calls :func:`fault_point` at named
instrumentation sites (today one: ``"pool_worker"`` at pool-task
entry; any name works for tests).  The call is a no-op
unless the :data:`ENV_FAULT_DIR` environment variable names an armed
token directory, so the production hot path pays one ``os.environ``
lookup.  Tokens are one-shot files created by :func:`arm`; a fault point
claims a token atomically via ``os.remove`` (exactly one process wins,
even across a pool of workers), then executes the token's action:
``"kill"`` (``os._exit`` — simulates a segfaulting worker), ``"raise"``
(raises :class:`FaultInjected`), or ``"sleep:<seconds>"`` (simulates a
hung worker for deadline tests).  Because arming is file-based, it
crosses ``fork``/``spawn`` process boundaries with no coordination
beyond the inherited environment.

**Bundle corruption utilities** — :func:`corrupt_bundle`,
:func:`truncate_bundle`, and :func:`delete_bundle` damage a saved index
the way disks and interrupted copies do (in-place bit flips inside a
member's data region, missing tails, missing files), for driving the
``verify=`` integrity modes and degraded serving.
"""

from __future__ import annotations

import os
import pathlib
import time
import uuid
import zipfile

__all__ = [
    "ENV_FAULT_DIR",
    "KILL_EXIT_CODE",
    "FaultInjected",
    "arm",
    "armed",
    "disarm_all",
    "fault_point",
    "corrupt_bundle",
    "truncate_bundle",
    "delete_bundle",
]

#: Environment variable naming the token directory that arms fault
#: points.  Unset (the default) means every :func:`fault_point` call is a
#: no-op; pool workers inherit the variable from the parent process.
ENV_FAULT_DIR = "REPRO_FAULT_DIR"

#: Exit status used by the ``"kill"`` action, chosen to be recognizable
#: in worker-death post-mortems.
KILL_EXIT_CODE = 87

_TOKEN_SEP = "@"


class FaultInjected(RuntimeError):
    """Raised by a claimed ``"raise"`` fault token — the injected stand-in
    for a transient infrastructure failure inside a pool task; the pool
    retries the task like a lost worker's."""


def arm(
    directory: str | pathlib.Path,
    point: str,
    action: str = "kill",
    count: int = 1,
) -> list[pathlib.Path]:
    """Arm ``count`` one-shot ``action`` tokens for ``point``.

    ``directory`` must be the same path the target processes see in
    :data:`ENV_FAULT_DIR`.  Each token triggers exactly once: the first
    process to reach the fault point and win the ``os.remove`` race
    consumes it.  Returns the created token paths.
    """
    if _TOKEN_SEP in point:
        raise ValueError(
            f"fault point name must not contain {_TOKEN_SEP!r}: {point!r}"
        )
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    tokens = []
    for _ in range(count):
        token = root / _TOKEN_SEP.join(
            (point, action, uuid.uuid4().hex[:12])
        )
        token.touch()
        tokens.append(token)
    return tokens


def armed(directory: str | pathlib.Path) -> list[str]:
    """Names of the tokens still unclaimed in ``directory`` (sorted)."""
    try:
        return sorted(os.listdir(directory))
    except FileNotFoundError:
        return []


def disarm_all(directory: str | pathlib.Path) -> int:
    """Remove every remaining token in ``directory``; returns how many."""
    removed = 0
    for name in armed(directory):
        try:
            os.remove(os.path.join(str(directory), name))
        except FileNotFoundError:
            continue
        removed += 1
    return removed


def _execute(point: str, action: str) -> None:
    if action == "kill":
        # Simulates a segfault / OOM kill: no cleanup, no exception
        # propagation, the executor sees a dead worker.
        os._exit(KILL_EXIT_CODE)
    if action.startswith("sleep:"):
        time.sleep(float(action.split(":", 1)[1]))
        return
    if action == "raise":
        raise FaultInjected(f"injected failure at fault point {point!r}")
    raise ValueError(
        f"unknown fault action {action!r} armed for point {point!r}"
    )


def fault_point(point: str) -> None:
    """Instrumentation hook: trigger one armed token for ``point``, if any.

    No-op unless :data:`ENV_FAULT_DIR` is set and ``directory`` holds a
    token for this point.  Claiming is atomic (``os.remove``): with many
    workers racing, exactly one executes the action per token.
    """
    root = os.environ.get(ENV_FAULT_DIR)
    if not root:
        return
    try:
        names = sorted(os.listdir(root))
    except FileNotFoundError:
        return
    prefix = point + _TOKEN_SEP
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            os.remove(os.path.join(root, name))
        except FileNotFoundError:
            continue  # another process claimed this token first
        action = name[len(prefix):].rsplit(_TOKEN_SEP, 1)[0]
        _execute(point, action)
        return


# -- bundle corruption utilities ------------------------------------------


def _npz_path(path: str | pathlib.Path) -> pathlib.Path:
    from repro.api import index_paths

    npz_path, _ = index_paths(path)
    return npz_path

_ZIP_LOCAL_HEADER_SIZE = 30


def corrupt_bundle(
    path: str | pathlib.Path, member: str | None = None
) -> int:
    """Flip one byte in the middle of a member's data region, in place.

    ``member`` names an archive member (with or without the ``.npy``
    suffix); by default the largest member is chosen — for an index
    bundle that is table data, so the corruption silently changes served
    candidates unless checksums catch it.  Returns the absolute file
    offset of the flipped byte.  The file size and mtime-granularity
    signature stay plausible, which is exactly what makes this failure
    mode dangerous.
    """
    npz_path = _npz_path(path)
    with zipfile.ZipFile(npz_path) as archive:
        infos = archive.infolist()
        if member is not None:
            wanted = {member, member + ".npy"}
            infos = [i for i in infos if i.filename in wanted]
            if not infos:
                raise ValueError(
                    f"{npz_path} has no member {member!r}"
                )
        info = max(infos, key=lambda i: i.file_size)
    with open(npz_path, "r+b") as f:
        f.seek(info.header_offset)
        local = f.read(_ZIP_LOCAL_HEADER_SIZE)
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        data_start = (
            info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_len + extra_len
        )
        offset = data_start + info.file_size // 2
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))
    return offset


def truncate_bundle(
    path: str | pathlib.Path, keep_fraction: float = 0.5
) -> int:
    """Cut a bundle's tail off in place — an interrupted copy or a disk
    that filled mid-replication.  Returns the new size in bytes."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(
            f"keep_fraction must be in [0, 1), got {keep_fraction}"
        )
    npz_path = _npz_path(path)
    keep = int(os.stat(npz_path).st_size * keep_fraction)
    os.truncate(npz_path, keep)
    return keep


def delete_bundle(path: str | pathlib.Path) -> None:
    """Delete a saved index's array bundle (the ``.npz``), leaving the
    sidecar — a shard file lost from a replica, the degraded-serving
    scenario."""
    os.remove(_npz_path(path))
