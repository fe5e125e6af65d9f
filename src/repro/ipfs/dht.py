"""Kademlia-style DHT for provider routing.

Peers and content share one 256-bit key space (SHA-256 of the peer id or the
CID string); distance is XOR. Each peer keeps a routing table of k-buckets
indexed by common-prefix length and answers two queries: *closest peers to a
key* and *providers of a CID*. Publishing a provider record stores it on the
``k`` peers closest to the CID's key — the same replication rule as IPFS's
provider subsystem — so lookups converge in O(log n) iterative steps.

The lookup here is the standard iterative algorithm run synchronously (the
in-process registry stands in for the RPC layer); hop counts are recorded so
experiments can check the O(log n) routing property.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from repro.crypto.cid import CID

K_BUCKET_SIZE = 20
ALPHA = 3  # parallelism of iterative lookups (batch size per round)
KEY_BITS = 256


def key_for_peer(peer_id: str) -> int:
    return int.from_bytes(hashlib.sha256(b"peer:" + peer_id.encode()).digest(), "big")


def key_for_cid(cid: CID) -> int:
    return int.from_bytes(hashlib.sha256(b"cid:" + cid.encode().encode()).digest(), "big")


def xor_distance(a: int, b: int) -> int:
    return a ^ b


def bucket_index(own_key: int, other_key: int) -> int:
    """Index of the k-bucket for ``other_key``: 255 - common prefix length."""
    d = own_key ^ other_key
    if d == 0:
        raise ValueError("a peer has no bucket for itself")
    return d.bit_length() - 1


@dataclass
class RoutingTable:
    """K-buckets of known peers, least-recently-seen first."""

    own_key: int
    bucket_size: int = K_BUCKET_SIZE
    _buckets: dict[int, list[str]] = field(default_factory=dict)
    _keys: dict[str, int] = field(default_factory=dict)

    def add(self, peer_id: str) -> None:
        key = key_for_peer(peer_id)
        if key == self.own_key:
            return
        idx = bucket_index(self.own_key, key)
        bucket = self._buckets.setdefault(idx, [])
        if peer_id in bucket:
            # Move to tail: most recently seen.
            bucket.remove(peer_id)
            bucket.append(peer_id)
            return
        if len(bucket) >= self.bucket_size:
            # Kademlia evicts the least-recently-seen when full (we skip the
            # liveness ping; the simulator's peers don't silently vanish).
            bucket.pop(0)
        bucket.append(peer_id)
        self._keys[peer_id] = key

    def remove(self, peer_id: str) -> None:
        key = self._keys.pop(peer_id, None)
        if key is None:
            return
        idx = bucket_index(self.own_key, key)
        bucket = self._buckets.get(idx, [])
        if peer_id in bucket:
            bucket.remove(peer_id)

    def peers(self) -> list[str]:
        return [p for bucket in self._buckets.values() for p in bucket]

    def closest(self, key: int, count: int) -> list[str]:
        """The ``count`` known peers closest to ``key`` by XOR distance."""
        return sorted(self.peers(), key=lambda p: xor_distance(key_for_peer(p), key))[
            :count
        ]

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class DhtNode:
    """One peer's DHT state: routing table plus locally stored records."""

    def __init__(self, peer_id: str, registry: "DhtRegistry", bucket_size: int = K_BUCKET_SIZE) -> None:
        self.peer_id = peer_id
        self.key = key_for_peer(peer_id)
        self.table = RoutingTable(own_key=self.key, bucket_size=bucket_size)
        self.providers: dict[CID, set[str]] = {}
        self._registry = registry

    # RPC surface (what remote peers may ask) --------------------------------

    def rpc_closest_peers(self, key: int, count: int = K_BUCKET_SIZE) -> list[str]:
        return self.table.closest(key, count)

    def rpc_add_provider(self, cid: CID, provider: str) -> None:
        self.providers.setdefault(cid, set()).add(provider)

    def rpc_get_providers(self, cid: CID) -> set[str]:
        return set(self.providers.get(cid, ()))


class DhtRegistry:
    """The peer swarm: creates nodes, runs iterative lookups between them.

    Stands in for the libp2p RPC layer; `lookup_hops` is incremented per
    peer queried so tests can assert logarithmic routing cost.
    """

    def __init__(self, replication: int = K_BUCKET_SIZE, bucket_size: int = K_BUCKET_SIZE) -> None:
        self.nodes: dict[str, DhtNode] = {}
        self.replication = replication
        self.bucket_size = bucket_size
        # Callers may read through one cluster from several threads; the hop
        # counter is the only cross-thread mutable state in the registry.
        self._stats_lock = threading.Lock()
        self.lookup_hops = 0

    # -- membership ----------------------------------------------------------

    def join(self, peer_id: str, bootstrap: str | None = None) -> DhtNode:
        """Add a peer; if ``bootstrap`` given, fill its table via a self-lookup."""
        if peer_id in self.nodes:
            raise ValueError(f"peer {peer_id!r} already joined")
        node = DhtNode(peer_id, self, bucket_size=self.bucket_size)
        self.nodes[peer_id] = node
        if bootstrap is not None:
            boot = self._require(bootstrap)
            node.table.add(bootstrap)
            boot.table.add(peer_id)
            # Self-lookup populates buckets along the path (standard join).
            for found in self.iterative_find_peers(peer_id, node.key):
                node.table.add(found)
        return node

    def leave(self, peer_id: str) -> None:
        self.nodes.pop(peer_id, None)
        for node in self.nodes.values():
            node.table.remove(peer_id)

    def _require(self, peer_id: str) -> DhtNode:
        try:
            return self.nodes[peer_id]
        except KeyError:
            raise ValueError(f"unknown peer {peer_id!r}") from None

    # -- iterative lookup ------------------------------------------------------

    def iterative_find_peers(self, requester: str, key: int) -> list[str]:
        """Iteratively find the ``replication`` closest live peers to ``key``."""
        start = self._require(requester)
        shortlist = set(start.table.closest(key, ALPHA)) or set(
            list(self.nodes)[:ALPHA]
        )
        shortlist.discard(requester)
        queried: set[str] = set()
        while True:
            candidates = sorted(
                (p for p in shortlist if p not in queried and p in self.nodes),
                key=lambda p: xor_distance(key_for_peer(p), key),
            )[:ALPHA]
            if not candidates:
                break
            progressed = False
            for peer in candidates:
                queried.add(peer)
                with self._stats_lock:
                    self.lookup_hops += 1
                for learned in self.nodes[peer].rpc_closest_peers(key):
                    if learned != requester and learned not in shortlist:
                        shortlist.add(learned)
                        progressed = True
                start.table.add(peer)
            if not progressed and len(queried) >= self.replication:
                break
        live = [p for p in shortlist if p in self.nodes]
        return sorted(live, key=lambda p: xor_distance(key_for_peer(p), key))[
            : self.replication
        ]

    # -- provider records --------------------------------------------------------

    def provide(self, provider: str, cid: CID) -> int:
        """Announce that ``provider`` holds ``cid``; returns replicas stored."""
        key = key_for_cid(cid)
        targets = self.iterative_find_peers(provider, key)
        if not targets:
            targets = [provider]
        for target in targets:
            self.nodes[target].rpc_add_provider(cid, provider)
        # Provider also remembers its own record (mirrors IPFS behaviour).
        self._require(provider).rpc_add_provider(cid, provider)
        return len(targets)

    def find_providers(self, requester: str, cid: CID) -> set[str]:
        """Collect provider records from the peers closest to the CID's key."""
        key = key_for_cid(cid)
        found: set[str] = set(self._require(requester).rpc_get_providers(cid))
        for peer in self.iterative_find_peers(requester, key):
            with self._stats_lock:
                self.lookup_hops += 1
            found |= self.nodes[peer].rpc_get_providers(cid)
        return {p for p in found if p in self.nodes}
