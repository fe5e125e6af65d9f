"""IpfsNode: one peer's complete stack — blockstore, UnixFS, bitswap.

The node is the unit the paper deploys two of ("two IPFS nodes for
decentralized storage"). ``add_bytes`` is step ③ of the paper's Figure 1
(store data, obtain CID); ``cat`` is step Ⓒ (fetch raw data by CID),
fetching missing blocks from providers over bitswap. A node keeps every
block it added or fetched: there is no pinning and no garbage collector.
"""

from __future__ import annotations

from repro.crypto.cid import CID
from repro.errors import BlockNotFoundError
from repro.ipfs.bitswap import Engine
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.chunker import Chunker
from repro.ipfs.dag import DagService, is_dag_node
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
        self.dag = DagService(self.blockstore)
        self.bitswap = Engine(peer_id, self.blockstore)

    @property
    def online(self) -> bool:
        """Whether this node is up; crashed nodes neither serve nor fetch."""
        return self.bitswap.online

    def set_online(self, up: bool) -> None:
        self.bitswap.online = up

    # -- local operations -----------------------------------------------------

    def add_bytes(self, data: bytes) -> AddResult:
        """Chunk, hash, and store ``data``; returns the root CID."""
        with obs_span("ipfs.add_bytes") as sp:
            sp.set_attr("peer", self.peer_id)
            sp.set_attr("bytes", len(data))
            result = self.unixfs.add_file(data)
            sp.set_attr("leaves", result.n_leaves)
            return result

    def cat_local(self, cid: CID) -> bytes:
        """Read a file using only local blocks, each hashed against its CID
        (raises if any is missing or fails)."""
        return self.unixfs.read_file(cid)

    def has_local(self, cid: CID) -> bool:
        return self.blockstore.has(cid)

    # -- remote fetch -----------------------------------------------------------

    def fetch_block(self, cid: CID, providers: list[str], on_transfer=None) -> None:
        """Ensure one block is local, pulling it over bitswap if needed."""
        if not self.blockstore.has(cid):
            self.bitswap.want(cid, providers, on_transfer=on_transfer)

    def cat(
        self,
        cid: CID,
        providers: list[str] | None = None,
        on_transfer=None,
    ) -> bytes:
        """Read a file, fetching any missing blocks from ``providers``.

        Traverses the DAG top-down: interior nodes are fetched first, then
        their children, so only the blocks of *this* file move. A fetched
        block is checked in bitswap before it is stored, and the read then
        checks every block as :meth:`UnixFS.read_file` does.
        """
        providers = providers or []
        with obs_span("ipfs.node.cat") as sp:
            sp.set_attr("peer", self.peer_id)
            try:
                data = self.cat_local(cid)
                sp.set_attr("remote", False)
                return data
            except BlockNotFoundError:
                pass
            sp.set_attr("remote", True)
            self._ensure_subtree(cid, providers, on_transfer)
            return self.cat_local(cid)

    def _ensure_subtree(self, cid: CID, providers: list[str], on_transfer) -> None:
        self.fetch_block(cid, providers, on_transfer)
        if is_dag_node(cid):
            node = self.dag.get(cid)
            for link in node.links:
                self._ensure_subtree(link.cid, providers, on_transfer)
