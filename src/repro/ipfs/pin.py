"""Pinning: marking blocks the garbage collector must keep.

Two pin types, as in IPFS: *direct* pins protect a single block; *recursive*
pins protect the block and everything reachable from it. The node auto-pins
everything it adds, so GC only ever reclaims content fetched on behalf of
other peers or explicitly unpinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.cid import CID
from repro.errors import PinError
from repro.ipfs.dag import DagService


@dataclass
class PinManager:
    direct: set[CID] = field(default_factory=set)
    recursive: set[CID] = field(default_factory=set)

    def pin(self, cid: CID, recursive: bool = True) -> None:
        if recursive:
            self.direct.discard(cid)
            self.recursive.add(cid)
        else:
            if cid in self.recursive:
                raise PinError(f"{cid} is already recursively pinned")
            self.direct.add(cid)

    def unpin(self, cid: CID) -> None:
        if cid in self.recursive:
            self.recursive.discard(cid)
        elif cid in self.direct:
            self.direct.discard(cid)
        else:
            raise PinError(f"{cid} is not pinned")

    def live_set(self, dag: DagService) -> set[CID]:
        """All CIDs protected from GC: direct pins + recursive closures."""
        live: set[CID] = set(self.direct)
        for root in self.recursive:
            live |= dag.referenced_cids(root)
        return live


@dataclass(frozen=True)
class GCResult:
    removed: int
    reclaimed_bytes: int
    kept: int


def collect_garbage(blockstore, pins: PinManager, dag: DagService) -> GCResult:
    """Mark-and-sweep: delete every block not in the pin live set."""
    live = pins.live_set(dag)
    removed = 0
    reclaimed = 0
    kept = 0
    for cid in list(blockstore.cids()):
        if cid in live:
            kept += 1
            continue
        reclaimed += len(blockstore.get(cid).data)
        blockstore.delete(cid)
        removed += 1
    return GCResult(removed=removed, reclaimed_bytes=reclaimed, kept=kept)
