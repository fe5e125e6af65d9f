"""Blocks: the unit of content-addressed storage.

A block is immutable bytes plus the CID that addresses them. Constructing a
block computes the CID; receiving a block from an untrusted peer goes through
:func:`Block.verified`, which recomputes the hash and rejects mismatches —
the integrity property the paper leans on when it stores CIDs on-chain.
"""

from __future__ import annotations

from repro.crypto.cid import CID, CODEC_RAW
from repro.errors import InvalidBlockError


class Block:
    """Read-only (cid, data) pair with the invariant cid == hash(data): what
    a blockstore read and a bitswap transfer hand back.

    ``data`` is immutable bytes, or a read-only view of an immutable payload
    (a chunk of a file added on this node), which it keeps alive whole."""

    __slots__ = ("cid", "data")

    def __init__(self, cid: CID, data: bytes | memoryview) -> None:
        self.cid = cid
        self.data = data

    @classmethod
    def for_data(cls, data: bytes | memoryview, codec: int = CODEC_RAW) -> "Block":
        """Create a block over ``data`` itself (no copy), deriving its CID."""
        return cls(CID.for_data(data, codec=codec), data)

    @classmethod
    def verified(cls, cid: CID, data: bytes | memoryview) -> "Block":
        """Accept a block from an untrusted source only if the hash matches;
        it holds its own ``bytes``, as a transfer into another store would."""
        if not cid.verifies(data):
            raise InvalidBlockError(f"data does not hash to {cid}")
        return cls(cid, bytes(data))

    def __len__(self) -> int:
        return len(self.data)
