"""Canonical byte encoding used for signing payloads and ledger export.

Every structure that gets signed, hashed, or written to disk goes through
these helpers: fixed-width big-endian integers and length-prefixed byte
strings, concatenated in a documented field order.  Two encoders given the
same values always produce the same bytes, which is what makes transcript
digests and replay comparisons meaningful.  An integer outside its field's
width raises WidthError, a ValueError, rather than encoding truncated bytes.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from typing import Optional


class DecodeError(ValueError):
    """Raised when a byte stream does not match the expected layout."""


class WidthError(ValueError):
    """Raised when an integer does not fit the unsigned field it is written to."""

    def __init__(self, value: object, bits: int) -> None:
        super().__init__(f"{value!r} is not an unsigned {bits}-bit integer")


_U8 = struct.Struct(">B").pack
_U16 = struct.Struct(">H").pack
_U32 = struct.Struct(">I").pack
_U64 = struct.Struct(">Q").pack
_U32_AT = struct.Struct(">I").unpack_from


def u8(value: int) -> bytes:
    try:
        return _U8(value)
    except struct.error:
        raise WidthError(value, 8) from None


def u16(value: int) -> bytes:
    try:
        return _U16(value)
    except struct.error:
        raise WidthError(value, 16) from None


def u32(value: int) -> bytes:
    try:
        return _U32(value)
    except struct.error:
        raise WidthError(value, 32) from None


def u64(value: int) -> bytes:
    try:
        return _U64(value)
    except struct.error:
        raise WidthError(value, 64) from None


def blob(data: bytes) -> bytes:
    """Length-prefixed byte string: u32 length followed by the raw bytes."""
    return _U32(len(data)) + data


def write_blob(write: Callable[[bytes], object], data: bytes) -> None:
    """Write ``blob(data)`` through ``write`` in two pieces, the prefix and
    then ``data`` itself, so the prefixed copy ``blob`` makes is never built."""
    write(_U32(len(data)))
    write(data)


def pack(*fields: bytes) -> bytes:
    """Concatenate fields, each individually length-prefixed.

    The prefix makes the encoding unambiguous: no arrangement of field
    contents can collide with a different field split.
    """
    return b"".join([_U32(len(f)) + f for f in fields])


def exhausted(needed: int, offset: int) -> DecodeError:
    """The error for input that ends before the ``needed`` bytes of a field
    that starts at ``offset``."""
    return DecodeError(f"needed {needed} bytes at offset {offset}, stream exhausted")


def blob_at(data: bytes, pos: int, end: int) -> tuple[bytes, int]:
    """The blob whose u32 length prefix is at ``pos``, and the offset just
    past it.  Raises DecodeError if the prefix or the blob runs past ``end``."""
    start = pos + 4
    if start > end:
        raise exhausted(4, pos)
    stop = start + _U32_AT(data, pos)[0]
    if stop > end:
        raise exhausted(stop - start, start)
    return data[start:stop], stop


def split(data: bytes) -> list[bytes]:
    """Inverse of pack() for any field count: every field, in order, read in
    one pass by offset.  Raises DecodeError if ``data`` ends inside a length
    prefix or a field."""
    fields = []
    pos, end = 0, len(data)
    while pos < end:
        if end - pos < 4:
            raise exhausted(4, pos)
        start = pos + 4
        pos = start + _U32_AT(data, pos)[0]
        if pos > end:
            raise exhausted(pos - start, start)
        fields.append(data[start:pos])
    return fields


def text(value: str) -> bytes:
    return value.encode("utf-8")


def decode_text(data: bytes) -> str:
    """Inverse of text(); bytes that are not UTF-8 raise DecodeError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"text field is not UTF-8: {exc.reason}") from exc


def opt(value: Optional[bytes]) -> bytes:
    """Optional field: 0x00 for None, else 0x01 followed by the bytes."""
    return b"\x00" if value is None else b"\x01" + value


class ByteReader:
    """Sequential reader for data produced by the encoders above."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise exhausted(n, self._pos)
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack(">B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        """A blob holding UTF-8 text; other bytes raise DecodeError."""
        return decode_text(self.blob())

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining():
            raise DecodeError(f"{self.remaining()} trailing bytes after expected end")


def unpack(data: bytes, count: int) -> list[bytes]:
    """Inverse of pack() for a known field count."""
    fields = split(data)
    if len(fields) != count:
        raise DecodeError(f"expected {count} fields, found {len(fields)}")
    return fields
