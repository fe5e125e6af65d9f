"""The blockstore: where blocks physically live on a node.

A block is its bytes, stored under the CID they hash to:
:class:`MemoryBlockstore` keeps them in a dict keyed by CID, hands them back
as stored, and counts puts/gets/bytes for the storage-time benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.crypto.cid import CID
from repro.errors import BlockNotFoundError


@dataclass
class BlockstoreStats:
    puts: int = 0
    gets: int = 0
    hits: int = 0
    misses: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


@dataclass
class MemoryBlockstore:
    """Dict-backed blockstore; deduplicates identical blocks by CID.

    Block data is kept as given: a leaf added here is a view that keeps its
    whole payload alive until the last of its leaves is deleted. Byte
    counts are block lengths either way."""

    _blocks: dict[CID, bytes | memoryview] = field(default_factory=dict)
    stats: BlockstoreStats = field(default_factory=BlockstoreStats)

    def put(self, cid: CID, data: bytes | memoryview) -> None:
        """Store ``data`` under ``cid`` as given; the caller has hashed it
        (added it, or checked it against ``cid``)."""
        self.stats.puts += 1
        if cid not in self._blocks:
            self._blocks[cid] = data
            self.stats.bytes_written += len(data)

    def get(self, cid: CID) -> bytes | memoryview:
        """The bytes stored under ``cid``, as they were put (no copy)."""
        self.stats.gets += 1
        try:
            data = self._blocks[cid]
        except KeyError:
            self.stats.misses += 1
            raise BlockNotFoundError(cid) from None
        self.stats.hits += 1
        self.stats.bytes_read += len(data)
        return data

    def has(self, cid: CID) -> bool:
        return cid in self._blocks

    def delete(self, cid: CID) -> None:
        self._blocks.pop(cid, None)

    def cids(self) -> Iterator[CID]:
        yield from list(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def total_bytes(self) -> int:
        return sum(len(d) for d in self._blocks.values())

    def corrupt(self, cid: CID, data: bytes) -> None:
        """Chaos hook: overwrite the bytes stored for ``cid`` without
        touching the key, simulating silent bit rot. Reads keep succeeding
        with wrong bytes until a verify/quarantine pass catches them."""
        if cid not in self._blocks:
            raise BlockNotFoundError(cid)
        self._blocks[cid] = data
