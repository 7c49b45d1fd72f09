"""Binary framing shared by episode records and checkpoints.

An episode file is a run of frames and a checkpoint is one frame
(integers little-endian)::

    magic (4 bytes) | u16 version | u64 body_len | body | u32 crc32(body)

The magic and version say what the body holds; each owner keeps only its
body schema. Episode records are built in memory with ``Writer`` and
parsed with ``Reader``; a checkpoint streams through its file, written by
``FileWriter`` and read back by ``FileReader``, so neither side holds a
copy of the whole frame.
"""

from __future__ import annotations

import math
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
_CHUNK = 1 << 20  # bytes per read of a streamed body's CRC pass


def frame(magic: bytes, version: int, body: bytes | bytearray) -> bytes:
    """Wrap ``body`` in a header and a trailing CRC-32."""
    header = _HEADER.pack(magic, version, len(body))
    return b"".join((header, body, _U32.pack(zlib.crc32(body))))


def _body_len(header: bytes, available: int, magic: bytes, version: int) -> int:
    """Check a frame's header, given ``available`` bytes from the frame's
    start to the end of its file or buffer; returns the body length."""
    kind = magic.decode()
    if len(header) < _HEADER.size:
        raise TruncatedRecordError(f"{kind} header incomplete")
    found_magic, found_version, body_len = _HEADER.unpack(header)
    if found_magic != magic:
        raise TruncatedRecordError(f"bad magic {found_magic!r}, expected {magic!r}")
    if found_version != version:
        raise VersionMismatchError(
            f"{kind} format version {found_version}, supported {version}"
        )
    present = available - _HEADER.size - _U32.size
    if body_len > present:
        raise TruncatedRecordError(
            f"{kind} frame claims {body_len} body bytes, only {present} present"
        )
    return body_len


def _check_crc(crc: int, stored: bytes, magic: bytes) -> None:
    if crc != _U32.unpack(stored)[0]:
        raise ChecksumError(f"{magic.decode()} checksum mismatch")


def unframe(data: bytes, offset: int, magic: bytes, version: int) -> tuple[bytes, int]:
    """Check the frame starting at ``offset``; returns (body, next offset)."""
    header = data[offset : offset + _HEADER.size]
    start = offset + _HEADER.size
    end = start + _body_len(header, len(data) - offset, magic, version)
    body = data[start:end]
    _check_crc(zlib.crc32(body), data[end : end + _U32.size], magic)
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

    def raw(self, b) -> None:
        self.buf += b

    def u8(self, v: int) -> None:
        self.raw(_U8.pack(v))

    def u32(self, v: int) -> None:
        self.raw(_U32.pack(v))

    def u64(self, v: int) -> None:
        self.raw(_U64.pack(v))

    def f64(self, v: float) -> None:
        self.raw(_F64.pack(v))

    def string(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.raw(raw)


class FileWriter(Writer):
    """Writes one frame into the binary file ``f`` as its body is written:
    the header first, each piece as it comes, the CRC at ``finish``, which
    seeks back to fill in the header's body length."""

    def __init__(self, f, magic: bytes, version: int):
        self.f, self.magic, self.version = f, magic, version
        self.start, self.crc = f.tell(), 0
        f.write(_HEADER.pack(magic, version, 0))

    def raw(self, b) -> None:
        self.crc = zlib.crc32(b, self.crc)
        self.f.write(b)

    def finish(self) -> None:
        end = self.f.tell()
        self.f.seek(self.start)
        self.f.write(_HEADER.pack(self.magic, self.version, end - self.start - _HEADER.size))
        self.f.seek(end)
        self.f.write(_U32.pack(self.crc))


class Reader:
    """Parses little-endian primitives from a frame body, front to back."""

    def __init__(self, data: bytes):
        self.data = data
        self.size = len(data)
        self.pos = 0

    def advance(self, n: int) -> int:
        """Moves past the next ``n`` body bytes; returns where they start."""
        if self.pos + n > self.size:
            raise TruncatedRecordError(
                f"frame body ends at byte {self.size}, needed {self.pos + n}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        at = self.advance(n)
        return self.data[at : at + n]

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

    def done(self) -> bool:
        return self.pos == self.size


class FileReader(Reader):
    """Parses the body of the frame at the binary file ``f``'s position
    straight from the file, once its header and its CRC, over the body read
    in 1 MiB chunks, are checked: a damaged frame is refused before parsing."""

    def __init__(self, f, magic: bytes, version: int):
        self.f, self.pos, start = f, 0, f.tell()
        available = os.fstat(f.fileno()).st_size - start
        self.size = _body_len(f.read(_HEADER.size), available, magic, version)
        chunk, crc = memoryview(bytearray(min(self.size, _CHUNK))), 0
        for at in range(0, self.size, _CHUNK):
            crc = zlib.crc32(self._fill(chunk[: self.size - at]), crc)
        _check_crc(crc, f.read(_U32.size), magic)
        f.seek(start + _HEADER.size)

    def _fill(self, buf):
        if self.f.readinto(buf) != len(buf):
            raise TruncatedRecordError("file ended inside a frame body")
        return buf

    def take(self, n: int) -> bytes:
        self.advance(n)
        return self.f.read(n)

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """A new float32 array of ``shape`` read from the body; a size past
        the body's end is refused before anything is allocated."""
        self.advance(4 * math.prod(shape))
        out = np.empty(shape, "<f4")
        self._fill(memoryview(out.reshape(-1)).cast("B"))
        return out
