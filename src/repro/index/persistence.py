"""Zero-copy index persistence primitives.

Built indexes are flat array bundles (the packed backend is literally CSR
arrays), so persistence is array persistence.  The one on-disk format is
:func:`repro.api.save_index`'s: an uncompressed ``.npz`` holding named
arrays (:func:`write_arrays`) next to a JSON sidecar carrying the
non-array state — spec, RNG state and the CRC-32 records of
:func:`integrity_record`.  The sidecar is written by :mod:`repro.api`,
not here.

The point of this module is the *loading* discipline.  ``np.load`` on an
``.npz`` copies each member into fresh memory on access, so a serving
process would pay O(index size) on every cold start.  But ``np.savez``
stores members uncompressed (``ZIP_STORED``): each member is a verbatim
``.npy`` file at a known offset inside the archive, so we can parse the
zip's local headers ourselves and hand back :class:`numpy.memmap` views
directly into the file (:func:`read_arrays`).  Cold start is then O(1) in
the number of indexed points — file open + header parse — and the OS page
cache shares the table arrays between every process serving the same
index and every snapshot generation loaded from it.

Compressed or otherwise non-mappable members fall back to an in-memory
read, so the function degrades gracefully on foreign archives.

Integrity
---------
A serving fleet replicates these bundles over networks and disks that
*do* flip bits and truncate files, so the module also owns the integrity
vocabulary: :func:`integrity_record` computes the per-member CRC-32
records :func:`repro.api.save_index` embeds in the JSON sidecar, and
:func:`verify_integrity` checks a bundle against them under three modes
— ``"eager"`` (every member's bytes re-checksummed), ``"lazy"`` (cheap
structural checks: recorded file size, catches truncation without
touching data pages), ``"off"``.  All failures raise
:class:`IndexIntegrityError`, whose ``kind`` distinguishes ``"truncated"``
(missing bytes / unreadable archive), ``"checksum"`` (content mismatch),
and ``"manifest"`` (schema skew: missing members, wrong dtype/shape,
inconsistent shard manifests).  Bundles saved before checksums existed
carry no integrity record and still load under every mode.
"""

from __future__ import annotations

import ast
import os
import pathlib
import tempfile
import zipfile
import zlib

import numpy as np

from typing import IO, Any

__all__ = [
    "FORMAT_VERSION",
    "VERIFY_MODES",
    "IndexIntegrityError",
    "write_arrays",
    "read_arrays",
    "integrity_record",
    "verify_integrity",
]

#: On-disk format version of saved index bundles.  Bump on any
#: incompatible change to the array layout or sidecar schema.
FORMAT_VERSION = 1

#: Accepted values for the ``verify=`` parameter of
#: :func:`repro.api.load_index` / :func:`verify_integrity`.
VERIFY_MODES = ("eager", "lazy", "off")


class IndexIntegrityError(ValueError):
    """A persisted index bundle failed an integrity check.

    ``kind`` classifies the failure so operators can route it without
    parsing messages:

    * ``"truncated"`` — the file is shorter than recorded or the archive
      is structurally unreadable (partial copy, interrupted write);
    * ``"checksum"`` — a member's bytes do not match its recorded CRC-32
      (bit rot, in-place corruption);
    * ``"manifest"`` — the bundle and its manifest/sidecar disagree
      (missing member, dtype/shape skew, shard-count mismatch).

    Subclasses :class:`ValueError` so pre-integrity callers that caught
    broad load errors keep working.
    """

    def __init__(self, message: str, *, kind: str = "checksum") -> None:
        super().__init__(message)
        self.kind = kind

    def __reduce__(
        self,
    ) -> tuple[type["IndexIntegrityError"], tuple[str], dict[str, str]]:
        """Pickle support: the error survives a pickle round trip intact,
        message *and* ``kind``."""
        return (type(self), (self.args[0],), {"kind": self.kind})


def _check_verify_mode(mode: str) -> None:
    if mode not in VERIFY_MODES:
        raise ValueError(
            f"unknown verify mode {mode!r}; expected one of {VERIFY_MODES}"
        )


def _array_crc32(array: np.ndarray) -> int:
    """CRC-32 of an array's logical content bytes (C-order)."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def integrity_record(
    npz_path: str | pathlib.Path, arrays: dict[str, np.ndarray]
) -> dict[str, Any]:
    """The full sidecar ``"integrity"`` block for a just-written bundle:
    algorithm tag, total archive size (the lazy-mode truncation check),
    and per member the CRC-32 of its content bytes plus the dtype/shape
    that make the bytes interpretable — what :func:`verify_integrity`
    later checks loaded arrays against."""
    return {
        "algorithm": "crc32",
        "npz_nbytes": int(os.stat(npz_path).st_size),
        "members": {
            name: {
                "crc32": _array_crc32(array),
                "nbytes": int(array.nbytes),
                "dtype": np.asarray(array).dtype.str,
                "shape": [int(s) for s in np.asarray(array).shape],
            }
            for name, array in arrays.items()
        },
    }


def verify_integrity(
    npz_path: str | pathlib.Path,
    integrity: dict[str, Any] | None,
    *,
    mode: str = "lazy",
    arrays: dict[str, np.ndarray] | None = None,
) -> None:
    """Check a bundle against its sidecar integrity record.

    ``mode="lazy"`` compares the on-disk size against the recorded
    ``npz_nbytes`` — O(1), catches truncation and appended garbage
    without touching data pages, so zero-copy cold starts stay O(1).
    ``mode="eager"`` additionally reads every member and re-computes its
    CRC-32 (pass ``arrays`` to reuse already-loaded members instead of a
    second read).  ``mode="off"`` skips everything.  A ``None``
    ``integrity`` record (a pre-checksum bundle) verifies trivially —
    under ``eager`` the members are still read, so an unreadable legacy
    archive fails as ``"truncated"`` rather than deep in revival code.

    Raises :class:`IndexIntegrityError` on any mismatch.
    """
    _check_verify_mode(mode)
    if mode == "off":
        return
    npz_path = pathlib.Path(npz_path)
    if integrity is not None:
        recorded = int(integrity.get("npz_nbytes", -1))
        actual = os.stat(npz_path).st_size
        if recorded >= 0 and actual != recorded:
            raise IndexIntegrityError(
                f"{npz_path}: file is {actual} bytes but the sidecar "
                f"records {recorded} — truncated or partially copied "
                "bundle",
                kind="truncated",
            )
    if mode == "lazy":
        return
    if arrays is None:
        arrays = read_arrays(npz_path, mmap=False)
    members: dict[str, dict[str, Any]] = (
        {} if integrity is None else integrity.get("members", {})
    )
    for name, record in members.items():
        error = _member_error(npz_path, name, record, arrays)
        if error is not None:
            raise error


def _member_error(
    npz_path: pathlib.Path,
    name: str,
    record: dict[str, Any],
    arrays: dict[str, np.ndarray],
) -> IndexIntegrityError | None:
    """One member's integrity error, or ``None``.  Returned, not raised,
    so no frame of the traceback holds the member's memory map."""
    if name not in arrays:
        return IndexIntegrityError(
            f"{npz_path}: member {name!r} is recorded in the sidecar "
            "but missing from the archive — manifest/bundle skew",
            kind="manifest",
        )
    array = np.asarray(arrays[name])
    if (
        array.dtype.str != record.get("dtype")
        or [int(s) for s in array.shape] != list(record.get("shape", []))
    ):
        return IndexIntegrityError(
            f"{npz_path}: member {name!r} has dtype/shape "
            f"{array.dtype.str}/{list(array.shape)} but the sidecar "
            f"records {record.get('dtype')}/{record.get('shape')} — "
            "manifest/bundle skew",
            kind="manifest",
        )
    if _array_crc32(array) != int(record.get("crc32", -1)):
        return IndexIntegrityError(
            f"{npz_path}: member {name!r} failed its CRC-32 check — "
            "the bundle's bytes changed since it was saved",
            kind="checksum",
        )
    return None

_ZIP_LOCAL_HEADER_SIZE = 30
_NPY_MAGIC = b"\x93NUMPY"


def _member_data_offset(f: IO[bytes], info: zipfile.ZipInfo) -> int | None:
    """Offset of ``info``'s stored bytes in the open archive ``f``, read
    from its local header (``None`` if there is none at its offset)."""
    f.seek(info.header_offset)
    local = f.read(_ZIP_LOCAL_HEADER_SIZE)
    if local[:4] != b"PK\x03\x04":
        return None
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    return info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_len + extra_len


def write_arrays(path: str | pathlib.Path, arrays: dict[str, np.ndarray]) -> pathlib.Path:
    """Write ``arrays`` as one *uncompressed* ``.npz`` (mmap-able members).

    ``np.savez`` (not ``savez_compressed``) on purpose: compression would
    make members unmappable and turn every cold start into a full decode.
    A missing ``.npz`` suffix is appended — compared case-insensitively
    via ``path.suffix``, so ``INDEX.NPZ`` is respected and names shorter
    than the suffix are handled (the write itself goes through a
    ``.npz``-suffixed temp file, so ``np.savez`` never silently renames
    and the returned path is always the real file).

    The write goes to a temporary file in the same directory and is
    ``os.replace``d over the target: crash-safe, and — critically — safe
    when some of ``arrays`` are memmap views into the target file itself
    (re-saving a loaded index): the views keep reading the old inode
    instead of a truncated file.
    """
    path = pathlib.Path(path)
    if path.suffix.lower() != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp.npz"
    )
    os.close(fd)
    try:
        np.savez(tmp_name, **arrays)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _mmap_member(
    path: pathlib.Path, f, data_start: int
) -> np.ndarray | None:
    """Map the ``.npy`` member starting at byte ``data_start`` of ``path``.

    Returns ``None`` if the member is not a parseable v1/v2/v3 ``.npy``
    (caller falls back to an eager read).  Zero-size arrays are returned
    eagerly: ``np.memmap`` rejects empty maps.
    """
    f.seek(data_start)
    if f.read(6) != _NPY_MAGIC:
        return None
    major = f.read(1)[0]
    f.read(1)  # minor version
    header_len_size = 2 if major == 1 else 4
    header_len = int.from_bytes(f.read(header_len_size), "little")
    try:
        header = ast.literal_eval(
            f.read(header_len).decode("latin1").strip()
        )
        dtype = np.dtype(header["descr"])
        shape = tuple(header["shape"])
        order = "F" if header.get("fortran_order") else "C"
    except (ValueError, KeyError, SyntaxError):
        return None
    if dtype.hasobject:
        return None
    data_offset = data_start + 6 + 2 + header_len_size + header_len
    if int(np.prod(shape)) == 0:
        return np.empty(shape, dtype=dtype)
    return np.memmap(
        path, dtype=dtype, mode="r", offset=data_offset, shape=shape,
        order=order,
    )


def read_arrays(
    path: str | pathlib.Path, mmap: bool = True
) -> dict[str, np.ndarray]:
    """Read a :func:`write_arrays` bundle.

    With ``mmap=True`` (the default) each uncompressed member comes back as
    a read-only :class:`numpy.memmap` view into the archive — no bytes are
    copied until a page is actually touched.  ``mmap=False`` forces eager
    in-memory copies (useful when the file will be deleted or rewritten
    while the arrays are still alive).

    A missing file raises :class:`FileNotFoundError`; an archive that
    cannot be parsed is a damaged copy and raises
    :class:`IndexIntegrityError`, not a zipfile internal: ``"checksum"``
    for a member whose stored CRC-32 disagrees with its bytes (``zipfile``
    reports that as ``BadZipFile``), ``"truncated"`` for anything else.
    """
    path = pathlib.Path(path)
    try:
        if not mmap:
            with np.load(path) as bundle:
                return {name: bundle[name] for name in bundle.files}
        out: dict[str, np.ndarray] = {}
        eager: list[str] = []
        with zipfile.ZipFile(path) as archive, open(path, "rb") as f:
            for info in archive.infolist():
                name = info.filename
                if name.endswith(".npy"):
                    name = name[: -len(".npy")]
                array = None
                if info.compress_type == zipfile.ZIP_STORED:
                    data_start = _member_data_offset(f, info)
                    if data_start is not None:
                        array = _mmap_member(path, f, data_start)
                if array is None:
                    eager.append(info.filename)
                else:
                    out[name] = array
        if eager:
            with np.load(path) as bundle:
                for filename in eager:
                    name = filename[: -len(".npy")] if filename.endswith(".npy") else filename
                    out[name] = bundle[name]
        return out
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        if isinstance(exc, zipfile.BadZipFile) and "CRC" in str(exc):
            raise IndexIntegrityError(
                f"{path}: member failed its CRC-32 check ({exc}) — the "
                "bundle's bytes changed since it was saved",
                kind="checksum",
            ) from exc
        raise IndexIntegrityError(
            f"{path}: archive is unreadable ({exc}) — truncated or "
            "corrupted bundle",
            kind="truncated",
        ) from exc
