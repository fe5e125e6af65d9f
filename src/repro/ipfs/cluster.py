"""IpfsCluster: a swarm of IpfsNodes wired through a DHT and bitswap.

The cluster is the deployment unit the framework's off-chain tier runs on —
the paper uses two IPFS nodes; experiments here scale that. ``add`` stores
on one node and announces provider records; ``cat`` on any other node
resolves providers through the DHT and pulls blocks over bitswap, so
cross-node retrieval exercises the full discovery + exchange path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cid import CID
from repro.errors import BlockNotFoundError, StorageError
from repro.ipfs.chunker import Chunker
from repro.ipfs.dag import is_dag_node
from repro.ipfs.dht import DhtRegistry
from repro.ipfs.node import IpfsNode
from repro.ipfs.unixfs import AddResult, frozen_payload
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span


@dataclass(frozen=True)
class ClusterStat:
    n_nodes: int
    total_blocks: int
    dht_lookup_hops: int


class IpfsCluster:
    """A fully-connected bitswap swarm with DHT provider routing."""

    def __init__(
        self,
        n_nodes: int = 2,
        chunker: Chunker | None = None,
        replication: int = 20,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.dht = DhtRegistry(replication=replication)
        self.nodes: dict[str, IpfsNode] = {}
        bootstrap: str | None = None
        for i in range(n_nodes):
            peer_id = f"ipfs-{i}"
            node = IpfsNode(peer_id, chunker=chunker)
            self.nodes[peer_id] = node
            self.dht.join(peer_id, bootstrap=bootstrap)
            if bootstrap is None:
                bootstrap = peer_id
        # Fully-connected bitswap sessions (small swarms, as in the paper).
        names = list(self.nodes)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                self.nodes[a].bitswap.connect(self.nodes[b].bitswap)

    # -- selection -------------------------------------------------------------

    def node(self, peer_id: str | None = None) -> IpfsNode:
        if peer_id is None:
            for candidate in self.nodes.values():
                if candidate.online:
                    return candidate
            raise StorageError("no online cluster node")
        try:
            return self.nodes[peer_id]
        except KeyError:
            raise StorageError(f"unknown cluster node {peer_id!r}") from None

    def peer_ids(self) -> list[str]:
        return list(self.nodes)

    def online_peer_ids(self) -> list[str]:
        return [peer_id for peer_id, node in self.nodes.items() if node.online]

    # -- membership / chaos hooks -------------------------------------------------

    def crash_node(self, peer_id: str) -> None:
        """Crash a node in place: it stops serving and fetching, but keeps
        its blockstore so a later :meth:`restart_node` brings the data back."""
        self.node(peer_id).set_online(False)

    def restart_node(self, peer_id: str) -> int:
        """Bring a node back and fsck its blockstore: every stored block is
        rehashed against its CID, and blocks that no longer verify (rot
        while the node was down) are quarantined on the spot. Returns the
        number of blocks dropped; the replication layer's next repair pass
        re-fetches clean copies from surviving replicas."""
        node = self.node(peer_id)
        node.set_online(True)
        removed = 0
        with obs_span("ipfs.restart_rehash") as sp:
            sp.set_attr("node", peer_id)
            for cid in sorted(node.blockstore.cids(), key=lambda c: c.encode()):
                if not cid.verifies(node.blockstore.get(cid)):
                    node.blockstore.delete(cid)
                    removed += 1
            sp.set_attr("removed", removed)
        if removed:
            get_registry().counter("ipfs_quarantined_blocks_total").inc(removed)
        return removed

    # -- cluster-level API -------------------------------------------------------

    def add(self, data: bytes, node: str | None = None, announce: bool = True) -> AddResult:
        """Store ``data`` on one node; optionally publish provider records.

        Announcing covers every block of the file (root and children share
        the provider in practice since whole files live on the adding node;
        we announce the root, which is how IPFS advertises files too).
        A payload that is not bytes-like raises :class:`StorageError`.
        """
        data = frozen_payload(data)
        with obs_span("ipfs.add") as sp:
            sp.set_attr("bytes", len(data))
            target = self.node(node)
            if not target.online:
                # The requested node is down — fail over to any online node
                # rather than writing into a crashed store.
                get_registry().counter("ipfs_failover_total", {"op": "add"}).inc()
                sp.set_attr("failover_from", target.peer_id)
                target = self.node(None)
            sp.set_attr("node", target.peer_id)
            result = target.add_bytes(data)
            if announce:
                self.dht.provide(target.peer_id, result.cid)
            return result

    def add_many(
        self,
        payloads: list[bytes],
        node: str | None = None,
        announce: bool = True,
    ) -> list[AddResult]:
        """Store many payloads in input order under one span.

        All payloads land on one node (the requested one, or the add
        failover target) with the results, block-store insertion order and
        DHT announcement sequence of N sequential :meth:`add` calls. The
        first failing payload's error propagates: nothing after it is
        stored, and a failed batch announces nothing (a payload that is not
        bytes-like fails it before anything is stored).
        """
        payloads = [frozen_payload(p) for p in payloads]
        with obs_span("ipfs.add_many") as sp:
            sp.set_attr("items", len(payloads))
            sp.set_attr("bytes", sum(len(p) for p in payloads))
            if not payloads:
                return []
            target = self.node(node)
            if not target.online:
                get_registry().counter("ipfs_failover_total", {"op": "add"}).inc()
                sp.set_attr("failover_from", target.peer_id)
                target = self.node(None)
            sp.set_attr("node", target.peer_id)
            results = [target.add_bytes(payload) for payload in payloads]
            if announce:
                for result in results:
                    self.dht.provide(target.peer_id, result.cid)
            return results

    def providers_for(self, cid: CID, requester: str) -> list[str]:
        with obs_span("ipfs.dht.providers") as sp:
            providers = sorted(self.dht.find_providers(requester, cid))
            sp.set_attr("providers", len(providers))
            return providers

    def cat(self, cid: CID, node: str | None = None) -> bytes:
        """Read a file from any node, discovering providers via the DHT.

        If the DHT-advertised providers can't serve every block (crashed
        node, stale provider record), the read fails over to the online
        nodes that actually hold the complete file. Every block under
        ``cid`` is hashed against the CID that names it (see
        :meth:`UnixFS.read_file`); a block pulled from a peer is also
        checked in bitswap."""
        with obs_span("ipfs.cat") as sp:
            reader = self.node(node)
            if not reader.online:
                raise StorageError(f"cluster node {reader.peer_id!r} is offline")
            sp.set_attr("node", reader.peer_id)
            if reader.has_local(cid):
                try:
                    return reader.cat_local(cid)
                except BlockNotFoundError:
                    # Partial local copy: fall through to the remote path.
                    # A block that fails its hash raises as it is: the
                    # remote path would read the same local blocks again.
                    sp.set_attr("partial_local", True)
                    get_registry().counter("ipfs_partial_local_total").inc()
            providers = self.providers_for(cid, reader.peer_id)
            try:
                return reader.cat(cid, providers=providers)
            except BlockNotFoundError:
                # Stale-provider recovery: only content that *was* announced
                # may fall over to replicas — unannounced content stays
                # undiscoverable, as DHT semantics require.
                if not providers:
                    raise
                fallback = [
                    peer_id
                    for peer_id, other in sorted(self.nodes.items())
                    if other.online
                    and peer_id != reader.peer_id
                    and peer_id not in providers
                    and other.blockstore.has(cid)
                ]
                if not fallback:
                    raise
                get_registry().counter(
                    "ipfs_failover_total", {"op": "cat_providers"}
                ).inc()
                sp.set_attr("failover_providers", len(fallback))
                return reader.cat(cid, providers=fallback)

    def quarantine(self, cid: CID) -> int:
        """Delete locally-stored blocks under ``cid`` whose bytes no longer
        match their CID (detected corruption), cluster-wide. Returns the
        number of blocks removed; a follow-up :meth:`cat` re-fetches clean
        copies from surviving replicas."""
        removed = 0
        with obs_span("ipfs.quarantine") as sp:
            for node in self.nodes.values():
                removed += self._quarantine_node(node, cid)
            sp.set_attr("removed", removed)
        if removed:
            get_registry().counter("ipfs_quarantined_blocks_total").inc(removed)
        return removed

    @staticmethod
    def _quarantine_node(node: IpfsNode, root: CID) -> int:
        removed = 0
        stack = [root]
        seen: set[CID] = set()
        while stack:
            current = stack.pop()
            if current in seen or not node.blockstore.has(current):
                continue
            seen.add(current)
            if not current.verifies(node.blockstore.get(current)):
                node.blockstore.delete(current)
                removed += 1
                continue
            if is_dag_node(current):
                stack.extend(link.cid for link in node.dag.get(current).links)
        return removed

    def stat(self) -> ClusterStat:
        return ClusterStat(
            n_nodes=len(self.nodes),
            total_blocks=sum(len(n.blockstore) for n in self.nodes.values()),
            dht_lookup_hops=self.dht.lookup_hops,
        )
