"""Binary framing shared by episode records and checkpoints.

An episode file is a run of frames and a checkpoint is one frame
(integers little-endian)::

    magic (4 bytes) | u16 version | u64 body_len | body | u32 crc32(body)

The magic and version say what the body holds; each owner keeps only its
body schema, written with ``Writer`` and parsed with ``Reader``. Named
float32 tensors (checkpoint parameters and moments) are stored as
``u32 name_len | name | u8 ndim | u32 dims... | float32 data``.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ChecksumError, RecordFormatError, TruncatedRecordError, VersionMismatchError

_HEADER = struct.Struct("<4sHQ")
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def frame(magic: bytes, version: int, body: bytes | bytearray) -> bytes:
    """Wrap ``body`` in a header and a trailing CRC-32."""
    header = _HEADER.pack(magic, version, len(body))
    return b"".join((header, body, _U32.pack(zlib.crc32(body))))


def unframe(data: bytes, offset: int, magic: bytes, version: int) -> tuple[bytes, int]:
    """Check the frame starting at ``offset``; returns (body, next offset)."""
    kind = magic.decode()
    if offset + _HEADER.size > len(data):
        raise TruncatedRecordError(f"{kind} header incomplete")
    found_magic, found_version, body_len = _HEADER.unpack_from(data, offset)
    if found_magic != magic:
        raise TruncatedRecordError(f"bad magic {found_magic!r}, expected {magic!r}")
    if found_version != version:
        raise VersionMismatchError(
            f"{kind} format version {found_version}, supported {version}"
        )
    start = offset + _HEADER.size
    end = start + body_len
    if end + _U32.size > len(data):
        raise TruncatedRecordError(
            f"{kind} frame claims {body_len} body bytes, "
            f"only {len(data) - start - _U32.size} present"
        )
    body = data[start:end]
    if zlib.crc32(body) != _U32.unpack_from(data, end)[0]:
        raise ChecksumError(f"{kind} checksum mismatch")
    return body, end + _U32.size


@contextmanager
def atomic_writer(path):
    """Binary file that replaces ``path`` only once the block completes.

    Bytes go to a temp file in the same directory, then ``os.replace``
    swaps it in, so a crash or an exception leaves the previous file whole.
    There is no fsync: this survives a process crash, not a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Writer:
    """Appends little-endian primitives to one growing buffer."""

    def __init__(self):
        self.buf = bytearray()

    def u8(self, v: int) -> None:
        self.buf += _U8.pack(v)

    def u32(self, v: int) -> None:
        self.buf += _U32.pack(v)

    def u64(self, v: int) -> None:
        self.buf += _U64.pack(v)

    def f64(self, v: float) -> None:
        self.buf += _F64.pack(v)

    def string(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.buf += raw

    def raw(self, b: bytes) -> None:
        self.buf += b

    def tensor(self, name: str, arr: np.ndarray) -> None:
        self.string(name)
        self.u8(arr.ndim)
        for d in arr.shape:
            self.u32(d)
        self.buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()


class Reader:
    """Parses little-endian primitives from a frame body, front to back."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedRecordError(
                f"frame body ends at byte {len(self.data)}, needed {self.pos + n}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def string(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            at = self.pos - len(raw) + exc.start
            raise RecordFormatError(f"invalid UTF-8 at frame body byte {at}") from None

    def tensor(self) -> tuple[str, np.ndarray]:
        name = self.string()
        shape = tuple(self.u32() for _ in range(self.u8()))
        count = int(np.prod(shape))
        arr = np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape)
        return name, arr.astype(np.float32)

    def done(self) -> bool:
        return self.pos == len(self.data)
