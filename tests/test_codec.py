import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from creditchain import codec

field_lists = st.lists(st.binary(max_size=200), max_size=8)


@given(field_lists)
def test_pack_unpack_round_trip(fields):
    assert codec.unpack(codec.pack(*fields), len(fields)) == fields


@given(field_lists)
def test_pack_matches_per_field_reference(fields):
    """The single-pass join gives the bytes of prefixing each field in turn."""
    expected = b"".join(struct.pack(">I", len(f)) + f for f in fields)
    assert codec.pack(*fields) == expected


@given(field_lists, field_lists)
def test_pack_is_injective(a, b):
    """Distinct field tuples never encode to the same bytes — the property
    the signing payloads rely on."""
    if a != b:
        assert codec.pack(*a) != codec.pack(*b)


@given(st.binary(max_size=64))
def test_blob_prefix_is_exact_length(data):
    encoded = codec.blob(data)
    assert encoded[:4] == struct.pack(">I", len(data))
    assert encoded[4:] == data


@given(st.binary(max_size=300))
def test_write_blob_writes_the_prefix_then_the_data_itself(data):
    pieces = []
    codec.write_blob(pieces.append, data)
    assert b"".join(pieces) == codec.blob(data)
    assert pieces[-1] is data


def test_integer_widths():
    assert codec.u8(0xAB) == b"\xab"
    assert codec.u16(0x0102) == b"\x01\x02"
    assert codec.u32(1) == b"\x00\x00\x00\x01"
    assert codec.u64(2**40) == bytes([0, 0, 1, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("encode, bits", [(codec.u8, 8), (codec.u16, 16),
                                          (codec.u32, 32), (codec.u64, 64)])
def test_integers_outside_their_width_raise_width_error(encode, bits):
    assert encode(2**bits - 1) == b"\xff" * (bits // 8)
    for value in (2**bits, -1, 10**30):
        with pytest.raises(codec.WidthError, match=f"unsigned {bits}-bit"):
            encode(value)
    assert issubclass(codec.WidthError, ValueError)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_round_trip(n):
    reader = codec.ByteReader(codec.u64(n))
    assert reader.u64() == n
    reader.expect_end()


def test_reader_walks_mixed_layout():
    data = codec.u8(3) + codec.blob(b"abc") + codec.u32(7) + codec.u64(9)
    reader = codec.ByteReader(data)
    assert reader.u8() == 3
    assert reader.blob() == b"abc"
    assert reader.u32() == 7
    assert reader.u64() == 9
    reader.expect_end()


def test_truncated_stream_raises():
    reader = codec.ByteReader(codec.u32(10) + b"short")
    with pytest.raises(codec.DecodeError):
        reader.blob()


def test_trailing_bytes_raise():
    with pytest.raises(codec.DecodeError):
        codec.unpack(codec.pack(b"x") + b"\x00", 1)


def test_unpack_wrong_count_raises():
    encoded = codec.pack(b"a", b"b")
    with pytest.raises(codec.DecodeError):
        codec.unpack(encoded, 3)
    with pytest.raises(codec.DecodeError):
        codec.unpack(encoded, 1)


def test_text_is_utf8():
    assert codec.text("déjà vu") == "déjà vu".encode("utf-8")


def test_reader_text_round_trips_and_refuses_other_bytes():
    assert codec.ByteReader(codec.pack(codec.text("déjà vu"))).text() == "déjà vu"
    with pytest.raises(codec.DecodeError, match="not UTF-8"):
        codec.ByteReader(codec.pack(b"\xff\xfe")).text()


def test_opt_marks_presence():
    assert codec.opt(None) == b"\x00"
    assert codec.opt(b"") == b"\x01"
    assert codec.opt(b"ab") == b"\x01ab"


@given(st.lists(st.binary(max_size=40), max_size=6))
def test_split_inverts_pack(fields):
    assert codec.split(codec.pack(*fields)) == fields


@pytest.mark.parametrize("data", [b"\x00\x00\x00", codec.u32(4) + b"abc",
                                  codec.pack(b"x") + b"\x00"],
                         ids=["short-prefix", "short-field", "trailing-byte"])
def test_split_refuses_a_cut_field(data):
    with pytest.raises(codec.DecodeError, match="stream exhausted"):
        codec.split(data)


def _unpack_field_by_field(data, count):
    reader = codec.ByteReader(data)
    fields = [reader.blob() for _ in range(count)]
    reader.expect_end()
    return fields


@given(st.lists(st.binary(max_size=12), max_size=4), st.integers(0, 5),
       st.integers(0, 3), st.binary(max_size=6))
def test_unpack_agrees_with_field_by_field_reading(fields, count, cut, extra):
    """Packed fields, cut short or with bytes after them, read for some
    field count: one pass gives what sequential reading gives, or both
    refuse."""
    data = codec.pack(*fields)
    data = data[:len(data) - cut] + extra
    try:
        expected = _unpack_field_by_field(data, count)
    except codec.DecodeError:
        with pytest.raises(codec.DecodeError):
            codec.unpack(data, count)
    else:
        assert codec.unpack(data, count) == expected
