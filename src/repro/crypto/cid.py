"""Content identifiers (CIDs), the addresses of the IPFS-like substrate.

Two versions, matching IPFS:

* **CIDv0** — a bare sha2-256 multihash of a dag-pb node. Only valid for
  sha2-256 + dag-pb, exactly as in IPFS; its string is base58btc (``Qm...``).
* **CIDv1** — ``<varint 1><varint codec><multihash>``; its string is that
  binary form in multibase lowercase base32 with a ``b`` prefix (``bafk…``
  for a raw leaf, ``bafy…`` for a dag-pb node).

Two forms, two uses. The binary form (:meth:`CID.to_bytes` /
:meth:`CID.from_bytes`) is how a DAG node names its children, so building
and reading a file tree renders and parses no base32. The string form
(:meth:`CID.encode` / :meth:`CID.parse`) is for where a CID leaves the DAG:
the on-chain record ("a unique cryptographic identifier (CID)" per data
entry, which the DataUpload chaincode stores) and CAR files.

A CID is a read-only value of a slotted class with dataclass-style equality
and repr, ordered by its string. Its hash is computed once, when it is
built, so using it as a blockstore key costs an attribute read; no byte or
string form is kept on it.
"""

from __future__ import annotations

import hashlib
from functools import total_ordering

from repro.crypto.hashing import SHA2_256
from repro.crypto.multihash import CODE_SHA2_256, Multihash
from repro.errors import EncodingError
from repro.obs.prof import profiled
from repro.util.encoding import b32decode, b32encode, b58decode, b58encode
from repro.util.varint import decode_varint, encode_varint

# Multicodec content-type codes (multiformats registry).
CODEC_RAW = 0x55
CODEC_DAG_PB = 0x70

_CODEC_NAMES = {CODEC_RAW: "raw", CODEC_DAG_PB: "dag-pb"}

# The first four bytes of a sha2-256 CIDv1's binary form, per codec: the
# one shape every CID this system builds has, read and written by lookup.
_SHA256_V1_PREFIX = {
    codec: encode_varint(1) + encode_varint(codec) + encode_varint(CODE_SHA2_256) + b"\x20"
    for codec in _CODEC_NAMES
}
_SHA256_V1_CODEC = {prefix: codec for codec, prefix in _SHA256_V1_PREFIX.items()}


@total_ordering
class CID:
    """Immutable content identifier; hashable, ordered, round-trippable."""

    __slots__ = ("version", "codec", "multihash", "_hash")

    def __init__(self, version: int, codec: int, multihash: Multihash) -> None:
        if version == 0:
            if codec != CODEC_DAG_PB or multihash.code != CODE_SHA2_256:
                raise EncodingError("CIDv0 requires dag-pb + sha2-256")
        elif version != 1:
            raise EncodingError(f"unsupported CID version {version}")
        if codec not in _CODEC_NAMES:
            raise EncodingError(f"unknown codec 0x{codec:x}")
        self.version = version
        self.codec = codec
        self.multihash = multihash
        # Equal CIDs have equal digests; a digest caches its own hash.
        self._hash = hash(multihash.digest)

    # -- construction -------------------------------------------------------

    @classmethod
    def for_data(
        cls,
        data: bytes | memoryview,
        codec: int = CODEC_RAW,
        version: int = 1,
        algo: str = SHA2_256,
    ) -> "CID":
        """CID addressing ``data`` directly (hash of the bytes). A file add
        calls this once per block, so sha2-256 is one direct ``hashlib``
        call under its ``crypto.hash`` frame and byte count."""
        if algo != SHA2_256:
            return cls(version, codec, Multihash.of(data, algo))
        with profiled("crypto.hash", n_bytes=len(data)):
            digest = hashlib.sha256(data).digest()
        return cls(version, codec, Multihash(CODE_SHA2_256, digest))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CID":
        """Parse a binary CID (:meth:`to_bytes`); truncated or trailing bytes,
        an unknown version, codec or hash function raise
        :class:`EncodingError`."""
        prefix = raw[:4]
        if prefix in _SHA256_V1_CODEC and len(raw) == 36:
            return cls(1, _SHA256_V1_CODEC[prefix], Multihash(CODE_SHA2_256, raw[4:]))
        if raw[:1] == b"\x12":  # CIDv0: the bare sha2-256 multihash
            return cls(0, CODEC_DAG_PB, Multihash.decode(raw))
        version, pos = decode_varint(raw)
        if version != 1:
            raise EncodingError(f"unsupported CID version {version}")
        codec, pos = decode_varint(raw, pos)
        mh, end = Multihash.decode_prefix(raw, pos)
        if end != len(raw):
            raise EncodingError("trailing bytes after CID")
        return cls(1, codec, mh)

    @classmethod
    def parse(cls, text: str) -> "CID":
        """Parse either a CIDv0 (``Qm...``) or multibase CIDv1 (``b...``)."""
        if text.startswith("Qm") and len(text) == 46:
            return cls(0, CODEC_DAG_PB, Multihash.decode(b58decode(text)))
        if text.startswith("b"):
            cid = cls.from_bytes(b32decode(text[1:]))
            if cid.version != 1:
                raise EncodingError("a multibase CID must be CIDv1")
            return cid
        raise EncodingError(f"unrecognized CID string {text!r}")

    # -- rendering ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Binary form: the multihash for CIDv0, else
        ``<varint 1><varint codec><multihash>``."""
        mh = self.multihash
        if self.version == 0:
            return mh.encode()
        if mh.code == CODE_SHA2_256:
            return _SHA256_V1_PREFIX[self.codec] + mh.digest
        return encode_varint(1) + encode_varint(self.codec) + mh.encode()

    def encode(self) -> str:
        """Canonical string form (what goes on-chain)."""
        if self.version == 0:
            return b58encode(self.multihash.encode())
        return "b" + b32encode(self.to_bytes())

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.encode()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CID({self.encode()!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CID:
            return NotImplemented
        mine, theirs = self.multihash, other.multihash
        return (
            self.codec == other.codec
            and mine.digest == theirs.digest
            and mine.code == theirs.code
            and self.version == other.version
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "CID") -> bool:
        return self.encode() < other.encode()

    def __reduce__(self):
        # Rebuilt through ``__init__``: a bytes hash differs per process.
        return CID, (self.version, self.codec, self.multihash)

    # -- semantics ----------------------------------------------------------

    @property
    def codec_name(self) -> str:
        return _CODEC_NAMES[self.codec]

    def verifies(self, data: bytes | memoryview) -> bool:
        """Does ``data`` hash to this CID's digest? A read checks every
        block with this, so the sha2-256 case is one direct ``hashlib``
        call (still a ``crypto.hash`` frame with its byte count)."""
        if self.multihash.code != CODE_SHA2_256:
            return self.multihash.matches(data)
        with profiled("crypto.hash", n_bytes=len(data)):
            return hashlib.sha256(data).digest() == self.multihash.digest
