"""IpfsNode: one peer's complete stack — blockstore, UnixFS, bitswap.

The node is the unit the paper deploys two of ("two IPFS nodes for
decentralized storage"). ``add_bytes`` is step ③ of the paper's Figure 1
(store data, obtain CID). Step Ⓒ (fetch raw data by CID) is
:meth:`IpfsCluster.cat`: one walk of the file on a node's ``unixfs``, which
takes each block from the node's store or, missing, over its ``bitswap``.
A node keeps every block it added or fetched: there is no pinning and no
garbage collector.
"""

from __future__ import annotations

from repro.ipfs.bitswap import Engine
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.chunker import Chunker
from repro.ipfs.unixfs import AddResult, UnixFS
from repro.obs.tracer import span as obs_span


class IpfsNode:
    """A single IPFS-like peer."""

    def __init__(
        self,
        peer_id: str,
        chunker: Chunker | None = None,
    ) -> None:
        self.peer_id = peer_id
        self.blockstore = MemoryBlockstore()
        self.unixfs = UnixFS(self.blockstore, chunker=chunker)
        self.bitswap = Engine(peer_id, self.blockstore)

    @property
    def online(self) -> bool:
        """Whether this node is up; crashed nodes neither serve nor fetch."""
        return self.bitswap.online

    def set_online(self, up: bool) -> None:
        self.bitswap.online = up

    def add_bytes(self, data: bytes) -> AddResult:
        """Chunk, hash, and store ``data``; returns the root CID."""
        with obs_span("ipfs.add_bytes") as sp:
            sp.set_attr("peer", self.peer_id)
            sp.set_attr("bytes", len(data))
            result = self.unixfs.add_file(data)
            sp.set_attr("leaves", result.n_leaves)
            return result
