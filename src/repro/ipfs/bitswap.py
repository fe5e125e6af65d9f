"""Bitswap-like block exchange between IPFS nodes.

Each node runs an :class:`Engine` holding a per-peer :class:`Ledger` of
bytes exchanged. A fetch (`want`) asks candidate providers in debt-friendly
order; the serving engine applies a reciprocity policy — peers deep in debt
get refused once past a grace allowance, the incentive mechanism real
bitswap uses to discourage freeloading. A block travels as its bytes; every
received one is hashed against the CID it was asked for before it touches
the local store, which keeps its own copy.

Transfers are in-process (the cluster holds all nodes), but every exchange
is metered, and an optional :class:`repro.net.SimNetwork` hook charges the
simulated clock for request/response latency and transfer time so
experiments can report network-realistic fetch times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.crypto.cid import CID
from repro.errors import BlockNotFoundError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.obs.metrics import get_registry


@dataclass
class Ledger:
    """Bytes exchanged with one peer, from the local engine's viewpoint."""

    peer: str
    bytes_sent: int = 0
    bytes_received: int = 0
    blocks_sent: int = 0
    blocks_received: int = 0

    def debt_ratio(self) -> float:
        """How much this peer owes us: sent / (received + 1)."""
        return self.bytes_sent / (self.bytes_received + 1.0)


@dataclass
class BitswapStats:
    blocks_fetched: int = 0
    blocks_served: int = 0
    fetch_failures: int = 0
    refusals: int = 0
    duplicate_wants: int = 0
    corrupt_rejected: int = 0


class Engine:
    """One node's bitswap engine."""

    # A peer may take this many bytes before reciprocity kicks in.
    GRACE_BYTES = 8 * 1024 * 1024
    MAX_DEBT_RATIO = 4.0

    def __init__(self, peer_id: str, blockstore: MemoryBlockstore) -> None:
        self.peer_id = peer_id
        self.blockstore = blockstore
        self.ledgers: dict[str, Ledger] = {}
        self.wantlist: set[CID] = set()
        self.stats = BitswapStats()
        # Crashed engines neither serve nor fetch; the cluster flips this.
        self.online = True
        # Resolution of peer id -> Engine, injected by the cluster/swarm.
        self._peers: dict[str, "Engine"] = {}

    def connect(self, other: "Engine") -> None:
        """Create a bidirectional session between two engines."""
        self._peers[other.peer_id] = other
        other._peers[self.peer_id] = self

    def peers(self) -> list[str]:
        """Peer ids with an open session, sorted."""
        return sorted(self._peers)

    def ledger_for(self, peer: str) -> Ledger:
        return self.ledgers.setdefault(peer, Ledger(peer=peer))

    # -- serving side ----------------------------------------------------------

    def handle_want(self, requester: str, cid: CID) -> bytes | memoryview | None:
        """Serve a block's bytes if we have it and the requester isn't
        freeloading."""
        if not self.online:
            return None
        ledger = self.ledger_for(requester)
        over_grace = ledger.bytes_sent > self.GRACE_BYTES
        if over_grace and ledger.debt_ratio() > self.MAX_DEBT_RATIO:
            self.stats.refusals += 1
            return None
        if not self.blockstore.has(cid):
            return None
        data = self.blockstore.get(cid)
        ledger.bytes_sent += len(data)
        ledger.blocks_sent += 1
        self.stats.blocks_served += 1
        return data

    # -- fetching side ------------------------------------------------------------

    def want(
        self,
        cid: CID,
        providers: list[str],
        on_transfer: Callable[[str, int], None] | None = None,
    ) -> bytes | memoryview:
        """Fetch the bytes of ``cid`` from the first provider that serves
        them intact.

        Providers are tried in descending debt-ratio order (peers that owe
        us are most likely to serve). ``on_transfer(peer, nbytes)`` lets the
        caller charge a network model for the transfer.
        """
        if self.blockstore.has(cid):
            self.stats.duplicate_wants += 1
            return self.blockstore.get(cid)
        self.wantlist.add(cid)
        try:
            ordered = sorted(
                (p for p in providers if p != self.peer_id and p in self._peers),
                key=lambda p: -self.ledger_for(p).debt_ratio(),
            )
            for peer in ordered:
                served = self._peers[peer].handle_want(self.peer_id, cid)
                if served is None:
                    continue
                if not cid.verifies(served):  # trust no peer
                    # Corrupted bytes from this peer — reject and keep trying
                    # the remaining providers rather than poisoning the store.
                    self.stats.corrupt_rejected += 1
                    get_registry().counter(
                        "ipfs_corrupt_blocks_total", {"peer": peer}
                    ).inc()
                    continue
                data = bytes(served)  # the fetcher's own copy
                ledger = self.ledger_for(peer)
                ledger.bytes_received += len(data)
                ledger.blocks_received += 1
                self.stats.blocks_fetched += 1
                self.blockstore.put(cid, data)
                if on_transfer is not None:
                    on_transfer(peer, len(data))
                return data
            self.stats.fetch_failures += 1
            raise BlockNotFoundError(cid)
        finally:
            self.wantlist.discard(cid)
