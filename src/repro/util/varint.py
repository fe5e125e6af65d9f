"""Unsigned LEB128 varints, as used by multihash/CID and block framing.

The wire format stores 7 bits per byte, least-significant group first; the
high bit of each byte is a continuation flag. This matches the `unsigned
varint <https://github.com/multiformats/unsigned-varint>`_ spec used by the
multiformats stack (multihash, multicodec, CID), which this reproduction's
IPFS-like substrate follows.
"""

from __future__ import annotations

from repro.errors import EncodingError

# The multiformats spec caps varints at 9 bytes (63 bits) for practicality.
MAX_VARINT_BYTES = 9

_ONE_BYTE = tuple(bytes((i,)) for i in range(0x80))


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if value < 0x80:
        if value < 0:
            raise EncodingError(f"varint cannot encode negative value {value}")
        return _ONE_BYTE[value]
    if value >> (7 * MAX_VARINT_BYTES):
        raise EncodingError("varint exceeds 9-byte maximum")
    # Assemble the groups as one little-endian integer: one conversion.
    packed = shift = 0
    while value > 0x7F:
        packed |= (value & 0x7F | 0x80) << shift
        value >>= 7
        shift += 8
    packed |= value << shift
    return packed.to_bytes(shift // 8 + 1, "little")


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``. Raises :class:`EncodingError` on
    truncated, over-long or non-minimal input (a trailing zero group, which
    the spec forbids: each value has exactly one encoding).
    """
    result = 0
    shift = 0
    pos = offset
    size = len(data)
    while True:
        if pos >= size:
            raise EncodingError("truncated varint")
        if pos - offset >= MAX_VARINT_BYTES:
            raise EncodingError("varint exceeds 9-byte maximum")
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        pos += 1
        if not byte & 0x80:
            if byte == 0 and pos - offset > 1:
                raise EncodingError("non-minimal varint")
            return result, pos
        shift += 7
