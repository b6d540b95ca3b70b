"""Binary checkpoint container for model parameters plus run metadata.

Layout: magic "NEATCKPT", format version (u32 LE), a metadata block of
length-prefixed UTF-8 key/value pairs, then one record per parameter
(name length u64, name bytes, rank u64, dims u64 each, values as
little-endian float64 in row-major order). Loading then saving is
byte-identical.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpoint, VersionMismatch

MAGIC = b"NEATCKPT"
VERSION = 1


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray],
                    metadata: dict[str, str]) -> None:
    """Write parameters and metadata; dict order is preserved on disk.

    The path is unlinked, then created anew, as ``collector.write_records``
    does, so rewriting a checkpoint does not wait for the old file's
    writeback. A hard link to the old file, or a reader that holds it open,
    keeps the old contents, and a symlink at the path is replaced by the
    file."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(metadata))
    for key, value in metadata.items():
        for text in (str(key), str(value)):
            raw = text.encode("utf-8")
            out += struct.pack("<Q", len(raw))
            out += raw
    out += struct.pack("<Q", len(params))
    for name, value in params.items():
        raw = name.encode("utf-8")
        arr = np.asarray(value, dtype=np.float64)   # keeps 0-d rank intact
        out += struct.pack("<Q", len(raw))
        out += raw
        out += struct.pack("<Q", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<Q", dim)
        out += arr.astype("<f8", copy=False).tobytes(order="C")
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_bytes(bytes(out))


class _Reader:
    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint(f"{self.path}: truncated at byte {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self) -> str:
        start = self.pos
        raw = self.take(self.u64())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpoint(f"{self.path}: text at byte {start} is not UTF-8") from None


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a checkpoint back into (params, metadata).

    Raises:
        CorruptCheckpoint: bad magic, a key or name that is not UTF-8, dims
            that do not fit the values stored, or a truncated file.
        VersionMismatch: format version other than the current one.
    """
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic")
    version = reader.u32()
    if version != VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
    metadata: dict[str, str] = {}
    for _ in range(reader.u64()):
        key = reader.text()
        metadata[key] = reader.text()
    params: dict[str, np.ndarray] = {}
    for _ in range(reader.u64()):
        name = reader.text()
        rank = reader.u64()
        shape = tuple(reader.u64() for _ in range(rank))
        raw = reader.take(math.prod(shape) * 8)     # exact, unlike np.prod's int64
        try:
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError:      # a zero dim beside one larger than numpy allows
            raise CorruptCheckpoint(f"{path}: parameter {name!r} has dims {shape}") from None
    if reader.pos != len(reader.data):
        raise CorruptCheckpoint(f"{path}: {len(reader.data) - reader.pos} trailing bytes")
    return params, metadata
