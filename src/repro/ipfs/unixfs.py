"""UnixFS-like file layer: files as balanced Merkle-DAG trees of chunks.

``add_file`` chunks the payload, stores each chunk as a raw leaf block, and
builds a fan-out tree of DAG nodes bottom-up (default fan-out 174, matching
go-ipfs); a single-chunk file is stored as one raw block with no envelope,
exactly as IPFS does. ``read_file`` walks the tree in order, verifying every
leaf hash unless its caller verifies the whole payload, and reassembles the
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cid import CID, CODEC_DAG_JSON
from repro.errors import DagError
from repro.ipfs.block import Block
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.chunker import Chunker, FixedSizeChunker
from repro.ipfs.dag import DagLink, DagNode, DagService
from repro.obs.prof import profiled

DEFAULT_FANOUT = 174  # go-ipfs balanced-DAG default

# Payload marker distinguishing file-tree interior nodes from other DAG uses.
_FILE_NODE_DATA = b"unixfs:file"


@dataclass(frozen=True)
class AddResult:
    """Outcome of adding a file: its root CID and storage accounting."""

    cid: CID
    size: int
    n_leaves: int
    n_nodes: int


class UnixFS:
    """File add/read operations over a blockstore."""

    def __init__(
        self,
        blockstore: MemoryBlockstore,
        chunker: Chunker | None = None,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.blockstore = blockstore
        self.chunker = chunker or FixedSizeChunker()
        self.fanout = fanout
        self.dag = DagService(blockstore)

    # -- write path ----------------------------------------------------------

    def add_file(self, data: bytes) -> AddResult:
        """Store ``data`` and return its root CID."""
        leaves: list[DagLink] = []
        n_leaves = 0
        with profiled("ipfs.chunk", n_bytes=len(data)):
            for chunk in self.chunker.chunks(data):
                block = Block.for_data(chunk)
                self.blockstore.put(block)
                leaves.append(DagLink(name="", cid=block.cid, tsize=len(chunk)))
                n_leaves += 1

        if len(leaves) == 1:
            # Single chunk: the raw block itself is the file.
            return AddResult(cid=leaves[0].cid, size=len(data), n_leaves=1, n_nodes=0)

        with profiled("ipfs.dag"):
            level = leaves
            n_nodes = 0
            while len(level) > 1:
                parents: list[DagLink] = []
                for start in range(0, len(level), self.fanout):
                    group = level[start : start + self.fanout]
                    node = DagNode(data=_FILE_NODE_DATA, links=tuple(group))
                    cid = self.dag.put(node)
                    n_nodes += 1
                    parents.append(
                        DagLink(name="", cid=cid, tsize=sum(l.tsize for l in group))
                    )
                level = parents
        return AddResult(cid=level[0].cid, size=len(data), n_leaves=n_leaves, n_nodes=n_nodes)

    # -- read path -----------------------------------------------------------

    def read_file(self, root: CID, verify_leaves: bool = True) -> bytes:
        """Reassemble a file from its root CID.

        Every leaf is re-hashed against its CID (a rotted one raises
        :class:`~repro.errors.DagError`) unless ``verify_leaves`` is False.
        Pass False only when the caller checks the whole payload against a
        digest of its own, so each byte is hashed once either way."""
        out = bytearray()
        with profiled("ipfs.read") as pf:
            self._read_into(root, out, verify_leaves)
            pf.add_bytes(len(out))
        return bytes(out)

    def _read_into(self, cid: CID, out: bytearray, verify_leaves: bool) -> None:
        if cid.codec == CODEC_DAG_JSON:
            node = self.dag.get(cid)
            if node.data != _FILE_NODE_DATA:
                raise DagError(f"{cid} is not a UnixFS file node")
            for link in node.links:
                self._read_into(link.cid, out, verify_leaves)
        else:
            block = self.blockstore.get(cid)
            if verify_leaves and not cid.verifies(block.data):
                raise DagError(f"leaf block {cid} failed verification")
            out.extend(block.data)

    def leaf_cids(self, root: CID) -> list[CID]:
        """CIDs of the raw chunks, in file order."""
        if root.codec != CODEC_DAG_JSON:
            return [root]
        node = self.dag.get(root)
        out: list[CID] = []
        for link in node.links:
            out.extend(self.leaf_cids(link.cid))
        return out
