"""Content identifiers (CIDs), the addresses of the IPFS-like substrate.

A CID here has one shape: a sha2-256 CIDv1 of codec raw (a leaf, ``bafk…``)
or dag-pb (a DAG node, ``bafy…``). Its binary form is 36 bytes,
``<varint 1><varint codec><0x12 0x20><32-byte digest>`` — the 4-byte prefix
names the codec — and its string is that binary form in multibase
lowercase base32 with a ``b`` prefix. Anything else (a CIDv0 ``Qm…``
string, another hash function, an unknown codec, a wrong length) raises
:class:`~repro.errors.EncodingError`: a CID arriving from outside is
checked strictly before it names anything.

Two forms, two uses. The binary form (:meth:`CID.to_bytes` /
:meth:`CID.from_bytes`) is how a DAG node names its children and a CAR
section names its block, so building, reading and archiving a file tree
renders and parses no base32. The string form (:meth:`CID.encode` /
:meth:`CID.parse`) is for where a CID leaves the DAG: the on-chain record
("a unique cryptographic identifier (CID)" per data entry, which the
DataUpload chaincode stores) and a CAR header's roots.

A CID is a read-only ``(codec, digest)`` value of a slotted class with
dataclass-style equality and repr, ordered by its string. Its hash is
computed once, when it is built, so using it as a blockstore key costs an
attribute read; no byte or string form is kept on it.
"""

from __future__ import annotations

import hashlib
from functools import total_ordering

from repro.errors import EncodingError
from repro.obs.prof import profiled
from repro.util.encoding import b32decode, b32encode

# Multicodec content-type codes (multiformats registry).
CODEC_RAW = 0x55
CODEC_DAG_PB = 0x70

_CODEC_NAMES = {CODEC_RAW: "raw", CODEC_DAG_PB: "dag-pb"}

# The first four bytes of the binary form, per codec: CID version 1, the
# codec, and the multihash header of a 32-byte sha2-256 digest (0x12 0x20).
_PREFIX = {codec: bytes([1, codec, 0x12, 0x20]) for codec in _CODEC_NAMES}
_CODEC_OF_PREFIX = {prefix: codec for codec, prefix in _PREFIX.items()}
CID_SIZE = 36  # bytes in the binary form


@total_ordering
class CID:
    """Immutable content identifier; hashable, ordered, round-trippable."""

    __slots__ = ("codec", "digest", "_hash")

    def __init__(self, codec: int, digest: bytes) -> None:
        if codec not in _CODEC_NAMES:
            raise EncodingError(f"unknown codec 0x{codec:x}")
        self.codec = codec
        self.digest = digest
        # Equal CIDs have equal digests; a digest caches its own hash.
        self._hash = hash(digest)

    # -- construction -------------------------------------------------------

    @classmethod
    def for_data(cls, data: bytes | memoryview, codec: int = CODEC_RAW) -> "CID":
        """CID addressing ``data`` directly (hash of the bytes). A file add
        calls this once per block: one ``hashlib`` call under its
        ``crypto.hash`` frame and byte count."""
        with profiled("crypto.hash", n_bytes=len(data)):
            digest = hashlib.sha256(data).digest()
        return cls(codec, digest)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CID":
        """Parse the 36-byte binary form (:meth:`to_bytes`); any other
        length, version, codec or hash function raises
        :class:`EncodingError`."""
        codec = _CODEC_OF_PREFIX.get(raw[:4])
        if codec is None:
            raise EncodingError(
                f"not a sha2-256 CIDv1 of codec raw or dag-pb: {bytes(raw[:4]).hex()}…"
            )
        if len(raw) != CID_SIZE:
            raise EncodingError(f"a binary CID is {CID_SIZE} bytes, not {len(raw)}")
        return cls(codec, raw[4:])

    @classmethod
    def parse(cls, text: str) -> "CID":
        """Parse the multibase base32 string (``b…``) :meth:`encode` writes."""
        if not text.startswith("b"):
            raise EncodingError(f"unrecognized CID string {text!r}")
        return cls.from_bytes(b32decode(text[1:]))

    # -- rendering ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Binary form: the codec's 4-byte prefix, then the digest."""
        return _PREFIX[self.codec] + self.digest

    def encode(self) -> str:
        """Canonical string form (what goes on-chain)."""
        return "b" + b32encode(self.to_bytes())

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.encode()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CID({self.encode()!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CID:
            return NotImplemented
        return self.codec == other.codec and self.digest == other.digest

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "CID") -> bool:
        return self.encode() < other.encode()

    def __reduce__(self):
        # Rebuilt through ``__init__``: a bytes hash differs per process.
        return CID, (self.codec, self.digest)

    # -- semantics ----------------------------------------------------------

    @property
    def codec_name(self) -> str:
        return _CODEC_NAMES[self.codec]

    def verifies(self, data: bytes | memoryview) -> bool:
        """Does ``data`` hash to this CID's digest? A read checks every
        block with this: one ``hashlib`` call under a ``crypto.hash`` frame
        with its byte count."""
        with profiled("crypto.hash", n_bytes=len(data)):
            return hashlib.sha256(data).digest() == self.digest
