"""Damage a saved index the way disks and interrupted copies do.

In-place bit flips inside a member's data region, missing tails and
missing files, for driving the ``verify=`` integrity modes, the shard
health probe and the async server's failed swaps and health checks.
"""

from __future__ import annotations

import os
import pathlib
import zipfile

from repro.api import index_paths
from repro.index.persistence import _member_data_offset


def corrupt_bundle(
    path: str | pathlib.Path, member: str | None = None
) -> int:
    """Flip one byte in the middle of a member's data region, in place.

    ``member`` names an archive member (with or without the ``.npy``
    suffix); by default the largest member is chosen — for an index
    bundle that is table data, so the corruption silently changes served
    candidates unless checksums catch it.  Returns the absolute file
    offset of the flipped byte.  The file size stays the same, which is
    exactly what makes this failure mode dangerous.
    """
    npz_path = index_paths(path)[0]
    with zipfile.ZipFile(npz_path) as archive:
        infos = archive.infolist()
        if member is not None:
            wanted = {member, member + ".npy"}
            infos = [i for i in infos if i.filename in wanted]
            if not infos:
                raise ValueError(f"{npz_path} has no member {member!r}")
        info = max(infos, key=lambda i: i.file_size)
    with open(npz_path, "r+b") as f:
        data_start = _member_data_offset(f, info)
        if data_start is None:
            raise ValueError(
                f"{npz_path}: no local header for {info.filename!r}"
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
    npz_path = index_paths(path)[0]
    keep = int(os.stat(npz_path).st_size * keep_fraction)
    os.truncate(npz_path, keep)
    return keep


def delete_bundle(path: str | pathlib.Path) -> None:
    """Delete a saved index's array bundle (the ``.npz``), leaving the
    sidecar — a shard file lost from a replica."""
    os.remove(index_paths(path)[0])
