"""Multihash: self-describing hash digests (<fn-code><length><digest>).

CIDs wrap digests in multihash so the hash function is recoverable from the
identifier itself. Codes follow the multiformats registry (0x12 = sha2-256,
0x13 = sha2-512).
"""

from __future__ import annotations

from repro.crypto.hashing import DIGEST_SIZES, SHA2_256, SHA2_512, digest
from repro.errors import EncodingError
from repro.util.varint import decode_varint, encode_varint

CODE_SHA2_256 = 0x12
CODE_SHA2_512 = 0x13

_ALGO_TO_CODE = {SHA2_256: CODE_SHA2_256, SHA2_512: CODE_SHA2_512}
_CODE_TO_ALGO = {code: algo for algo, code in _ALGO_TO_CODE.items()}


class Multihash:
    """A digest tagged with the function that produced it: a read-only value
    of a slotted class, equal, hashed and printed by ``(code, digest)`` as a
    frozen dataclass would be. One is built per CID, so construction is one
    plain ``__init__``."""

    __slots__ = ("code", "digest")

    def __init__(self, code: int, digest: bytes) -> None:
        self.code = code
        self.digest = digest

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Multihash:
            return self.code == other.code and self.digest == other.digest
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.code, self.digest))

    def __repr__(self) -> str:
        return f"Multihash(code={self.code!r}, digest={self.digest!r})"

    @property
    def algo(self) -> str:
        return _CODE_TO_ALGO[self.code]

    def encode(self) -> bytes:
        """Serialize to ``<varint code><varint size><digest>``."""
        return encode_varint(self.code) + encode_varint(len(self.digest)) + self.digest

    @classmethod
    def decode(cls, data: bytes) -> "Multihash":
        mh, end = cls.decode_prefix(data)
        if end != len(data):
            raise EncodingError("trailing bytes after multihash")
        return mh

    @classmethod
    def decode_prefix(cls, data: bytes, offset: int = 0) -> tuple["Multihash", int]:
        """Decode a multihash at ``offset``; returns (multihash, next_offset)."""
        code, pos = decode_varint(data, offset)
        if code not in _CODE_TO_ALGO:
            raise EncodingError(f"unknown multihash code 0x{code:x}")
        size, pos = decode_varint(data, pos)
        if size != DIGEST_SIZES[_CODE_TO_ALGO[code]]:
            raise EncodingError(
                f"digest size {size} does not match {_CODE_TO_ALGO[code]}"
            )
        if pos + size > len(data):
            raise EncodingError("truncated multihash digest")
        return cls(code=code, digest=data[pos : pos + size]), pos + size

    @classmethod
    def of(cls, data: bytes, algo: str = SHA2_256) -> "Multihash":
        """Hash ``data`` and wrap the digest."""
        return cls(code=_ALGO_TO_CODE[algo], digest=digest(data, algo))

    def matches(self, data: bytes) -> bool:
        """Does ``data`` hash to this digest under this function?"""
        return digest(data, self.algo) == self.digest
