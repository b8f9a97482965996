"""Binary checkpoint container.

Layout: 8-byte magic, little-endian uint32 manifest length, UTF-8 JSON
manifest, then one contiguous blob of raw little-endian arrays.  The
manifest lists (name, shape, offset, dtype) per tensor plus a free-form
``meta`` dict.  A training checkpoint is one such file: weights, optimizer
moments under ``opt/`` names, and the step in ``meta``.

A save goes through ``atomic_write``, as does every JSONL file the package
writes: a temporary file next to the target, synced to disk and renamed
over the target, so a crash mid-write leaves the previous file intact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"QSUMCKPT"


def _raw_bytes(arr: np.ndarray) -> np.ndarray:
    """The bytes of C-contiguous ``arr`` as a flat uint8 view of its buffer."""
    return arr.reshape(-1).view(np.uint8)


@contextlib.contextmanager
def atomic_write(path):
    """A binary file whose content replaces ``path``'s.  It is a temporary
    file next to ``path``; when the ``with`` block ends without an error it
    is synced to disk, then renamed over ``path``.  On any error it is
    removed and ``path`` is left as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write ``arrays`` and ``meta``.  Each array's buffer goes to the file
    as it is; only an array that is not contiguous or not little-endian is
    copied first, one at a time."""
    arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
    entries = []
    offset = 0
    for name, arr in arrays.items():
        dtype = arr.dtype.newbyteorder("<")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "dtype": dtype.str})
        offset += arr.nbytes
    manifest = json.dumps({"meta": meta or {}, "tensors": entries}).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for arr in arrays.values():
            data = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
            fh.write(_raw_bytes(data))


def _read_manifest(fh, path) -> dict:
    """Check the magic and read the manifest, leaving ``fh`` at the blob.
    A manifest that is not a JSON object with an object ``meta`` and a list
    of ``tensors``, each an object with a string name, a shape of
    non-negative integers, a non-negative integer offset and a numeric numpy
    dtype string, raises a ``ValueError`` naming ``path`` and the entry."""
    if fh.read(8) != MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    header = fh.read(4)
    if len(header) < 4:
        raise ValueError(f"{path} is truncated: no manifest length")
    (manifest_len,) = struct.unpack("<I", header)
    raw = fh.read(manifest_len)
    if len(raw) < manifest_len:
        raise ValueError(
            f"{path} is truncated: manifest of {manifest_len} bytes, {len(raw)} present"
        )
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{path}: manifest is not UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    if not isinstance(manifest.get("meta"), dict):
        raise ValueError(f"{path}: manifest 'meta' must be an object")
    if not isinstance(manifest.get("tensors"), list):
        raise ValueError(f"{path}: manifest 'tensors' must be a list")
    for i, entry in enumerate(manifest["tensors"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: tensor entry {i} must be an object")
        for key in ("name", "shape", "offset", "dtype"):
            if key not in entry:
                raise ValueError(f"{path}: tensor entry {i} has no {key!r}")
        _check_entry_types(entry, f"{path}: tensor entry {i}")
    return manifest


def _is_count(value) -> bool:
    # JSON true/false load as bool, an int subclass.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_entry_types(entry: dict, where: str) -> None:
    name, shape, offset, dtype = (entry[k] for k in ("name", "shape", "offset", "dtype"))
    if not isinstance(name, str):
        raise ValueError(f"{where}: name must be a string, got {name!r}")
    if not (isinstance(shape, list) and all(_is_count(d) for d in shape)):
        raise ValueError(f"{where}: shape must be a list of non-negative integers, got {shape!r}")
    if not _is_count(offset):
        raise ValueError(f"{where}: offset must be a non-negative integer, got {offset!r}")
    try:
        # numpy reads some dtype strings as Python literals, hence SyntaxError.
        numeric = isinstance(dtype, str) and np.dtype(dtype).kind in "biufc"
    except (TypeError, ValueError, SyntaxError):
        numeric = False
    if not numeric:
        raise ValueError(f"{where}: dtype must name a numeric numpy data type, got {dtype!r}")


def load_meta(path) -> dict:
    """The ``meta`` dict alone; no array is read."""
    with open(path, "rb") as fh:
        return _read_manifest(fh, path)["meta"]


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Every tensor and the ``meta`` dict.  Each tensor is read from its
    offset straight into its own array; the blob is never held whole."""
    arrays = {}
    with open(path, "rb") as fh:
        manifest = _read_manifest(fh, path)
        blob_start = fh.tell()
        blob_len = os.fstat(fh.fileno()).st_size - blob_start
        for entry in manifest["tensors"]:
            shape = tuple(entry["shape"])
            dtype = np.dtype(entry["dtype"])
            start = entry["offset"]
            end = start + dtype.itemsize * math.prod(shape)
            if end > blob_len:
                raise ValueError(
                    f"{path} is truncated: {entry['name']} needs bytes {start}..{end}"
                    f" of a {blob_len}-byte blob"
                )
            arr = np.empty(shape, dtype)
            fh.seek(blob_start + start)
            if fh.readinto(_raw_bytes(arr)) != arr.nbytes:
                raise ValueError(f"{path} is truncated: {entry['name']} ends early")
            arrays[entry["name"]] = arr.astype(dtype.newbyteorder("="), copy=False)
    return arrays, manifest["meta"]
