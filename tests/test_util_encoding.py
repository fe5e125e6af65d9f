"""Unit and property tests for the base32 encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.util.encoding import b32decode, b32encode


class TestBase32:
    def test_empty(self):
        assert b32encode(b"") == ""
        assert b32decode("") == b""

    def test_known_vector(self):
        # RFC 4648 vector "foobar" -> MZXW6YTBOI (lowercase, unpadded here).
        assert b32encode(b"foobar") == "mzxw6ytboi"
        assert b32decode("mzxw6ytboi") == b"foobar"

    def test_single_byte(self):
        assert b32encode(b"f") == "my"
        assert b32decode("my") == b"f"

    def test_invalid_character_rejected(self):
        with pytest.raises(EncodingError):
            b32decode("abc1")  # '1' not in RFC 4648 alphabet

    def test_nonzero_padding_bits_rejected(self):
        # 'mz' has non-zero trailing bits ('z' = 25 -> padding bits set).
        with pytest.raises(EncodingError):
            b32decode("mz")

    @given(st.binary(max_size=128))
    def test_roundtrip(self, data):
        assert b32decode(b32encode(data)) == data

    @given(st.binary(min_size=1, max_size=64))
    def test_encoding_is_lowercase(self, data):
        assert b32encode(data) == b32encode(data).lower()


# The per-bit codec the table/int one replaced, kept here as the oracle.
_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
_INDEX = {c: i for i, c in enumerate(_ALPHABET)}


def reference_b32encode(data: bytes) -> str:
    bits = acc = 0
    out = []
    for byte in data:
        acc = (acc << 8) | byte
        bits += 8
        while bits >= 5:
            bits -= 5
            out.append(_ALPHABET[(acc >> bits) & 0x1F])
    if bits:
        out.append(_ALPHABET[(acc << (5 - bits)) & 0x1F])
    return "".join(out)


def reference_b32decode(text: str) -> bytes:
    acc = bits = 0
    out = bytearray()
    for ch in text:
        try:
            acc = (acc << 5) | _INDEX[ch]
        except KeyError:
            raise EncodingError(f"invalid base32 character {ch!r}") from None
        bits += 5
        if bits >= 8:
            bits -= 8
            out.append((acc >> bits) & 0xFF)
    if acc & ((1 << bits) - 1):
        raise EncodingError("non-zero padding bits in base32 input")
    return bytes(out)


def _outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except EncodingError as exc:
        return ("error", str(exc))


class TestBase32AgainstPerBitReference:
    @pytest.mark.parametrize("length", range(81))
    def test_every_length_round_trips_like_the_reference(self, length):
        data = bytes((37 * i + length) & 0xFF for i in range(length))
        text = b32encode(data)
        assert text == reference_b32encode(data)
        assert b32decode(text) == data == reference_b32decode(text)

    @given(st.binary(max_size=80))
    def test_encode_matches_reference(self, data):
        assert b32encode(data) == reference_b32encode(data)
        assert b32decode(reference_b32encode(data)) == data

    @given(st.text(alphabet=_ALPHABET, max_size=130))
    def test_any_alphabet_text_decodes_or_fails_like_the_reference(self, text):
        # Non-zero padding bits included: every length, every last character.
        assert _outcome(b32decode, text) == _outcome(reference_b32decode, text)

    @given(st.text(alphabet=_ALPHABET + "ABCXYZ0189=_ -+٣é", max_size=40))
    def test_invalid_characters_fail_like_the_reference(self, text):
        # Upper case, digits 0/1/8/9, padding, and what int() would accept.
        assert _outcome(b32decode, text) == _outcome(reference_b32decode, text)

    @pytest.mark.parametrize("text", ["A", "mZ", "my=", "my ", "_my", "1", "b٣", "+a", "mz", "b"])
    def test_known_bad_inputs_raise_the_reference_error(self, text):
        expected = _outcome(reference_b32decode, text)
        assert expected[0] == "error"
        assert _outcome(b32decode, text) == expected
