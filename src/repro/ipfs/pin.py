"""Pinning: marking the content a node keeps.

Two pin types, as in IPFS: *direct* pins mark a single block; *recursive*
pins mark the block and everything reachable from it. A node pins what it
adds and the replication layer each replica it places. Nothing is unpinned
or collected: this store has no garbage collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.cid import CID
from repro.errors import PinError


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
