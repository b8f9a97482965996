"""Binary checkpoint container.

Layout: 8-byte magic, little-endian uint32 manifest length, UTF-8 JSON
manifest, then one contiguous blob of raw little-endian float32 arrays.  The
manifest lists (name, shape, offset) per tensor plus a free-form ``meta``
dict.  Optimizer state rides in a sidecar file with the same layout.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"QSUMCKPT"


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(data.tobytes())
        offset += data.nbytes
    manifest = json.dumps({"meta": meta or {}, "tensors": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for blob in blobs:
            fh.write(blob)


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
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
        manifest = json.loads(raw.decode("utf-8"))
        blob = fh.read()
    arrays = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start + 4 * count > len(blob):
            raise ValueError(
                f"{path} is truncated: {entry['name']} needs bytes {start}..{start + 4 * count}"
                f" of a {len(blob)}-byte blob"
            )
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(shape).copy()
    return arrays, manifest["meta"]
