"""Deterministic binary checkpoint container.

Layout: an 8-byte magic/version preamble, a JSON header (sorted keys), then
the arrays sorted by name, each as name / dtype / shape / raw little-endian
bytes. No timestamps or environment data are written, so saving the same
state twice produces byte-identical files and save -> load -> save
round-trips exactly. A save writes a temporary file beside the target and
renames it over the target, so a failed or interrupted save leaves the
previous checkpoint whole.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

_MAGIC = b"GMRL"
_VERSION = 1
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def save(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<I", _VERSION)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob += struct.pack("<I", len(head))
    blob += head
    blob += struct.pack("<I", len(arrays))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype == np.float64:
            arr = arr.astype("<f8", copy=False)
        elif arr.dtype == np.int64:
            arr = arr.astype("<i8", copy=False)
        else:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for array {name}")
        nm = name.encode()
        blob += struct.pack("<I", len(nm))
        blob += nm
        dt = arr.dtype.str.encode()
        blob += struct.pack("<I", len(dt))
        blob += dt
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.tobytes()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32()
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")
    try:
        header = json.loads(r.take(r.u32()).decode())
    except (ValueError, UnicodeDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {e}") from e
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.take(r.u32()).decode()
        dt = r.take(r.u32()).decode()
        if dt not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {dt} in checkpoint")
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}Q", r.take(8 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(r.take(count * 8), dtype=_DTYPES[dt]).reshape(shape)
        arrays[name] = arr.copy()  # own the memory, writable
    if r.off != len(data):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return header, arrays
