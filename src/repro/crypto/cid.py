"""Content identifiers (CIDs), the addresses of the IPFS-like substrate.

Two versions, matching IPFS:

* **CIDv0** — bare base58btc multihash of a dag-pb node (``Qm...``). Only
  valid for sha2-256 + dag-pb, exactly as in IPFS.
* **CIDv1** — ``<version><content-codec><multihash>`` rendered in multibase
  (lowercase base32 with ``b`` prefix).

The paper stores "a unique cryptographic identifier (CID)" per data entry on
the chain; these objects are what the DataUpload chaincode records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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
CODEC_DAG_JSON = 0x0129

_CODEC_NAMES = {CODEC_RAW: "raw", CODEC_DAG_PB: "dag-pb", CODEC_DAG_JSON: "dag-json"}


@total_ordering
@dataclass(frozen=True)
class CID:
    """Immutable content identifier; hashable, ordered, round-trippable."""

    version: int
    codec: int
    multihash: Multihash

    def __post_init__(self) -> None:
        if self.version == 0:
            if self.codec != CODEC_DAG_PB or self.multihash.code != CODE_SHA2_256:
                raise EncodingError("CIDv0 requires dag-pb + sha2-256")
        elif self.version != 1:
            raise EncodingError(f"unsupported CID version {self.version}")
        if self.codec not in _CODEC_NAMES:
            raise EncodingError(f"unknown codec 0x{self.codec:x}")

    # -- construction -------------------------------------------------------

    @classmethod
    def for_data(
        cls, data: bytes, codec: int = CODEC_RAW, version: int = 1, algo: str = SHA2_256
    ) -> "CID":
        """CID addressing ``data`` directly (hash of the bytes)."""
        return cls(version=version, codec=codec, multihash=Multihash.of(data, algo))

    @classmethod
    def parse(cls, text: str) -> "CID":
        """Parse either a CIDv0 (``Qm...``) or multibase CIDv1 (``b...``)."""
        if text.startswith("Qm") and len(text) == 46:
            mh = Multihash.decode(b58decode(text))
            return cls(version=0, codec=CODEC_DAG_PB, multihash=mh)
        if text.startswith("b"):
            raw = b32decode(text[1:])
            version, pos = decode_varint(raw)
            if version != 1:
                raise EncodingError(f"unsupported CID version {version}")
            codec, pos = decode_varint(raw, pos)
            mh, end = Multihash.decode_prefix(raw, pos)
            if end != len(raw):
                raise EncodingError("trailing bytes after CID")
            return cls(version=1, codec=codec, multihash=mh)
        raise EncodingError(f"unrecognized CID string {text!r}")

    # -- rendering ----------------------------------------------------------

    def encode(self) -> str:
        """Canonical string form (what goes on-chain)."""
        if self.version == 0:
            return b58encode(self.multihash.encode())
        raw = encode_varint(1) + encode_varint(self.codec) + self.multihash.encode()
        return "b" + b32encode(raw)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.encode()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CID({self.encode()!r})"

    def __lt__(self, other: "CID") -> bool:
        return self.encode() < other.encode()

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
