"""Unit and property tests for unsigned LEB128 varints."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.util.varint import MAX_VARINT_BYTES, decode_varint, encode_varint


class TestEncode:
    def test_zero_is_single_zero_byte(self):
        assert encode_varint(0) == b"\x00"

    def test_small_values_single_byte(self):
        assert encode_varint(1) == b"\x01"
        assert encode_varint(127) == b"\x7f"

    def test_128_needs_two_bytes(self):
        assert encode_varint(128) == b"\x80\x01"

    def test_known_multiformats_vectors(self):
        # Vectors from the unsigned-varint spec.
        assert encode_varint(255) == b"\xff\x01"
        assert encode_varint(300) == b"\xac\x02"
        assert encode_varint(16384) == b"\x80\x80\x01"

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            encode_varint(-1)

    def test_over_nine_bytes_rejected(self):
        with pytest.raises(EncodingError):
            encode_varint(1 << 63)

    def test_largest_encodable(self):
        value = (1 << 63) - 1
        assert len(encode_varint(value)) == MAX_VARINT_BYTES


class TestDecode:
    def test_decode_returns_value_and_offset(self):
        assert decode_varint(b"\xac\x02") == (300, 2)

    def test_decode_with_offset(self):
        data = b"\xff\xac\x02\xff"
        value, pos = decode_varint(data, offset=1)
        assert (value, pos) == (300, 3)

    def test_truncated_raises(self):
        with pytest.raises(EncodingError):
            decode_varint(b"\x80")

    def test_empty_raises(self):
        with pytest.raises(EncodingError):
            decode_varint(b"")

    def test_overlong_raises(self):
        with pytest.raises(EncodingError):
            decode_varint(b"\x80" * 10 + b"\x01")

    @pytest.mark.parametrize("raw", [b"\x80\x00", b"\x81\x00", b"\xff\x80\x00"])
    def test_non_minimal_raises(self, raw):
        # Each value has one encoding: a trailing zero group is refused.
        with pytest.raises(EncodingError):
            decode_varint(raw)


@given(st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_roundtrip(value):
    encoded = encode_varint(value)
    decoded, pos = decode_varint(encoded)
    assert decoded == value
    assert pos == len(encoded)


@given(st.integers(min_value=0, max_value=(1 << 63) - 1),
       st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_concatenated_varints_decode_in_sequence(a, b):
    data = encode_varint(a) + encode_varint(b)
    va, pos = decode_varint(data)
    vb, end = decode_varint(data, pos)
    assert (va, vb, end) == (a, b, len(data))


@given(st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_encoding_is_minimal_length(value):
    # LEB128 minimal length is ceil(bit_length / 7), with 1 byte for zero.
    expected = max(1, -(-value.bit_length() // 7))
    assert len(encode_varint(value)) == expected
