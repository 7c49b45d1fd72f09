"""Binary framing shared by episode records and checkpoints.

An episode file is a run of frames and a checkpoint is one frame
(integers little-endian)::

    magic (4 bytes) | u16 version | u64 body_len | body | u32 crc32(body)

The magic and version say what the body holds; each owner keeps only its
body schema. ``Writer`` writes a frame's body piece by piece and ``Reader``
parses it back once the frame's header and CRC are checked. A checkpoint
streams through its file, so no side holds a copy of it; an episode record
is small and is framed in memory, then written whole.
"""

from __future__ import annotations

import io
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
_CHUNK = 1 << 20  # bytes per read of a body's CRC pass


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
    """Writes one frame into the seekable binary file ``f`` as its body is
    written: the header first, each little-endian piece as it comes, the
    CRC at ``finish``, which seeks back to fill in the header's body length."""

    def __init__(self, f, magic: bytes, version: int):
        self.f, self.magic, self.version = f, magic, version
        self.start, self.crc = f.tell(), 0
        f.write(_HEADER.pack(magic, version, 0))

    def raw(self, b) -> None:
        self.crc = zlib.crc32(b, self.crc)
        self.f.write(b)

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

    def finish(self) -> None:
        end = self.f.tell()
        self.f.seek(self.start)
        self.f.write(_HEADER.pack(self.magic, self.version, end - self.start - _HEADER.size))
        self.f.seek(end)
        self.f.write(_U32.pack(self.crc))


class Reader:
    """Parses the body of the frame at the seekable binary file ``f``'s
    position, front to back, straight from the file, once its header and
    its CRC, over the body read in 1 MiB chunks, are checked: a damaged
    frame is refused before parsing."""

    def __init__(self, f, magic: bytes, version: int):
        self.f, self.pos, start = f, 0, f.tell()
        available = f.seek(0, io.SEEK_END) - start
        f.seek(start)
        kind = magic.decode()
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedRecordError(f"{kind} header incomplete")
        found_magic, found_version, self.size = _HEADER.unpack(header)
        if found_magic != magic:
            raise TruncatedRecordError(f"bad magic {found_magic!r}, expected {magic!r}")
        if found_version != version:
            raise VersionMismatchError(
                f"{kind} format version {found_version}, supported {version}"
            )
        present = available - _HEADER.size - _U32.size
        if self.size > present:
            raise TruncatedRecordError(
                f"{kind} frame claims {self.size} body bytes, only {present} present"
            )
        chunk, crc = memoryview(bytearray(min(self.size, _CHUNK))), 0
        for at in range(0, self.size, _CHUNK):
            crc = zlib.crc32(self._fill(chunk[: self.size - at]), crc)
        if crc != _U32.unpack(f.read(_U32.size))[0]:
            raise ChecksumError(f"{kind} checksum mismatch")
        f.seek(start + _HEADER.size)

    def _fill(self, buf):
        if self.f.readinto(buf) != len(buf):
            raise TruncatedRecordError("file ended inside a frame body")
        return buf

    def advance(self, n: int) -> None:
        """Counts the next ``n`` body bytes as read, refusing a read past the body."""
        if self.pos + n > self.size:
            raise TruncatedRecordError(
                f"frame body ends at byte {self.size}, needed {self.pos + n}"
            )
        self.pos += n

    def take(self, n: int) -> bytes:
        self.advance(n)
        return self.f.read(n)

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

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """A new float32 array of ``shape`` read from the body; a size past
        the body's end is refused before anything is allocated."""
        self.advance(4 * math.prod(shape))
        out = np.empty(shape, "<f4")
        self._fill(memoryview(out.reshape(-1)).cast("B"))
        return out

    def finish(self) -> None:
        """Refuses unparsed body bytes; leaves the file at the next frame."""
        if self.pos != self.size:
            raise TruncatedRecordError("record body has trailing bytes")
        self.f.seek(_U32.size, io.SEEK_CUR)
