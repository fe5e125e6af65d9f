"""Replication manager: keep every tracked file on k cluster nodes.

A bare IPFS node only holds what it added or fetched; if that node dies,
the content dies with it. The replication manager (the role ipfs-cluster
plays in real deployments) tracks root CIDs, places each on
``replication_factor`` nodes chosen by rendezvous (highest-random-weight)
hashing — stable under membership churn — and ``repair()`` re-replicates
anything under-replicated after failures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial

from repro.crypto.cid import CID
from repro.errors import StorageError
from repro.ipfs.cluster import IpfsCluster
from repro.ipfs.unixfs import checked, walk_file
from repro.obs.tracer import span as obs_span


def _rendezvous_score(cid: CID, peer_id: str) -> int:
    return int.from_bytes(
        hashlib.sha256(f"{cid.encode()}|{peer_id}".encode()).digest()[:8], "big"
    )


@dataclass
class ReplicationStatus:
    cid: CID
    desired: int
    holders: list[str]

    @property
    def healthy(self) -> bool:
        return len(self.holders) >= self.desired


@dataclass
class ReplicationManager:
    cluster: IpfsCluster
    replication_factor: int = 2
    _tracked: set[CID] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise StorageError("replication factor must be >= 1")

    # -- placement ---------------------------------------------------------------

    def placement(self, cid: CID) -> list[str]:
        """The nodes that *should* hold ``cid`` (rendezvous hashing).

        Only online nodes are candidates — placing a replica on a crashed
        node would count phantom copies toward the replication factor."""
        peers = self.cluster.online_peer_ids()
        k = min(self.replication_factor, len(peers))
        return sorted(peers, key=lambda p: -_rendezvous_score(cid, p))[:k]

    def holders(self, cid: CID) -> list[str]:
        """Online nodes that hold every block of the file under ``cid``. A
        presence walk that hashes nothing: a copy's bytes are checked where
        they are read or received."""
        out = []
        for peer_id, node in self.cluster.nodes.items():
            if not node.online or not node.blockstore.has(cid):
                continue
            try:
                walk_file(cid, node.blockstore.get, seen=set())
            except StorageError:
                continue  # partial copy doesn't count
            out.append(peer_id)
        return out

    # -- operations ----------------------------------------------------------------

    def replicate(self, cid: CID) -> ReplicationStatus:
        """Track ``cid`` and copy it to its placement set."""
        self._tracked.add(cid)
        return self._ensure(cid)

    def _ensure(self, cid: CID) -> ReplicationStatus:
        current = set(self.holders(cid))
        if not current:
            raise StorageError(f"no cluster node holds {cid}; cannot replicate")
        for target_id in self.placement(cid):
            if target_id in current:
                continue
            target = self.cluster.nodes[target_id]
            providers = sorted(current)
            # One walk that pulls each missing block over bitswap (checked on
            # receipt) and hashes the ones the target has; it joins no bytes.
            with obs_span("ipfs.replicate", {"peer": target_id}):
                fetch = partial(target.bitswap.want, providers=providers)
                walk_file(cid, checked(target.blockstore, fetch), seen=set())
            # Announce the new replica so reads can discover it after the
            # original adder crashes (what ipfs-cluster does on pin).
            self.cluster.dht.provide(target_id, cid)
            current.add(target_id)
        return self.status(cid)

    def status(self, cid: CID) -> ReplicationStatus:
        return ReplicationStatus(
            cid=cid,
            desired=min(self.replication_factor, len(self.cluster.online_peer_ids())),
            holders=self.holders(cid),
        )

    def repair(self) -> list[ReplicationStatus]:
        """Re-replicate every tracked CID that lost holders; returns the
        statuses of the CIDs that needed work."""
        repaired = []
        for cid in sorted(self._tracked):
            status = self.status(cid)
            if not status.healthy:
                repaired.append(self._ensure(cid))
        return repaired

    def tracked(self) -> list[CID]:
        return sorted(self._tracked)
