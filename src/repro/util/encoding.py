"""Base encodings used by CIDs and identities: base58btc, base32, hex.

base58btc is the Bitcoin alphabet used by CIDv0 (``Qm...`` identifiers);
lowercase base32 (RFC 4648, no padding) is the default multibase for CIDv1
(``b...`` identifiers). Both are implemented from scratch — the substrate is
dependency-free by design.
"""

from __future__ import annotations

from repro.errors import EncodingError

B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(B58_ALPHABET)}

B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
_B32_CHARS = frozenset(B32_ALPHABET)
# Each base32 character -> the digit of the same value that ``int(_, 32)`` reads.
_B32_TO_INT_DIGITS = str.maketrans(B32_ALPHABET, "0123456789abcdefghijklmnopqrstuv")
# 10 bits -> their two base32 characters.
_B32_PAIRS = [a + b for a in B32_ALPHABET for b in B32_ALPHABET]


def b58encode(data: bytes) -> str:
    """Encode bytes as base58btc (Bitcoin alphabet)."""
    # Leading zero bytes encode as leading '1' characters.
    n_zeros = len(data) - len(data.lstrip(b"\x00"))
    num = int.from_bytes(data, "big")
    chars: list[str] = []
    while num:
        num, rem = divmod(num, 58)
        chars.append(B58_ALPHABET[rem])
    return "1" * n_zeros + "".join(reversed(chars))


def b58decode(text: str) -> bytes:
    """Decode a base58btc string to bytes."""
    num = 0
    for ch in text:
        try:
            num = num * 58 + _B58_INDEX[ch]
        except KeyError:
            raise EncodingError(f"invalid base58 character {ch!r}") from None
    n_zeros = len(text) - len(text.lstrip("1"))
    body = num.to_bytes((num.bit_length() + 7) // 8, "big") if num else b""
    return b"\x00" * n_zeros + body


def b32encode(data: bytes) -> str:
    """Encode bytes as lowercase unpadded base32 (RFC 4648 alphabet).

    Five bytes are eight characters: each 40-bit group is four table
    lookups, and the zero bytes that fill the last group are cut off as
    characters at the end."""
    n_chars = (8 * len(data) + 4) // 5
    tail = len(data) % 5
    if tail:
        data = bytes(data) + bytes(5 - tail)
    pairs = _B32_PAIRS
    out: list[str] = []
    for start in range(0, len(data), 5):
        group = int.from_bytes(data[start : start + 5], "big")
        out += (
            pairs[group >> 30],
            pairs[(group >> 20) & 0x3FF],
            pairs[(group >> 10) & 0x3FF],
            pairs[group & 0x3FF],
        )
    return "".join(out)[:n_chars]


def b32decode(text: str) -> bytes:
    """Decode lowercase unpadded base32 to bytes.

    The text is one big-endian number in base 32, so ``int`` parses it once
    the alphabet is mapped onto ``int``'s digits; its low ``5n mod 8`` bits
    are padding and must be zero."""
    if not _B32_CHARS.issuperset(text):
        bad = next(ch for ch in text if ch not in _B32_CHARS)
        raise EncodingError(f"invalid base32 character {bad!r}")
    n_bits = 5 * len(text)
    pad = n_bits % 8
    num = int(text.translate(_B32_TO_INT_DIGITS), 32) if text else 0
    # Trailing bits must be zero padding, otherwise the input is malformed.
    if num & ((1 << pad) - 1):
        raise EncodingError("non-zero padding bits in base32 input")
    return (num >> pad).to_bytes(n_bits // 8, "big")
