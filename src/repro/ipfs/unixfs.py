"""UnixFS-like file layer: files as balanced Merkle-DAG trees of chunks.

``add_file`` stores each chunk as a raw leaf for one sha2-256, one CID and
one blockstore put, then builds a fan-out tree of dag-pb nodes bottom-up
(default fan-out 174, matching go-ipfs) whose data is the marker
``unixfs:file``, not go-ipfs's UnixFS protobuf; a single-chunk file is
stored as one raw block with no envelope, exactly as IPFS does.
``read_file`` walks the tree in order, hashing every block it reads — the
root, each interior node and each leaf — against the CID that names it, and
reassembles the bytes. There is no unverified read: the CID is the on-chain
commitment to the payload, so a read that returns bytes has proven them
against it, one hash per block.

Each payload byte is copied at most once: the leaves of a file added here
are views of its payload (a mutable input is frozen into ``bytes`` first),
and a read joins the leaves once, so a one-leaf file reads back as itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cid import CID
from repro.errors import DagError, StorageError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.chunker import Chunker, FixedSizeChunker
from repro.ipfs.dag import DagLink, DagNode, DagService, is_dag_node
from repro.obs.prof import profiled

DEFAULT_FANOUT = 174  # go-ipfs balanced-DAG default

# Payload marker distinguishing file-tree interior nodes from other DAG uses.
_FILE_NODE_DATA = b"unixfs:file"


def frozen_payload(data: bytes) -> bytes:
    """``data`` as immutable bytes: itself if it is ``bytes``, else one copy
    of a bytes-like buffer, so a caller that later edits its buffer cannot
    change a stored block. Anything else raises :class:`StorageError`."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise StorageError(f"payload must be bytes-like, not {type(data).__name__}")
    return data if isinstance(data, bytes) else bytes(data)


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
        data = frozen_payload(data)
        leaves: list[DagLink] = []
        put = self.blockstore.put
        with profiled("ipfs.chunk", n_bytes=len(data)):
            for chunk in self.chunker.chunks(data):
                cid = CID.for_data(chunk)
                put(cid, chunk)
                leaves.append(DagLink("", cid, len(chunk)))
        n_leaves = len(leaves)

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
                    parents.append(DagLink("", cid, sum([l.tsize for l in group])))
                level = parents
        return AddResult(cid=level[0].cid, size=len(data), n_leaves=n_leaves, n_nodes=n_nodes)

    # -- read path -----------------------------------------------------------

    def read_file(self, root: CID) -> bytes:
        """Reassemble a file from its root CID, hashing every block against
        the CID that names it: a rotted or substituted block, interior or
        leaf, raises :class:`~repro.errors.DagError`."""
        parts: list[bytes | memoryview] = []
        with profiled("ipfs.read") as pf:
            self._read_into(root, parts)
            data = b"".join(parts)  # a lone ``bytes`` leaf comes back as is
            pf.add_bytes(len(data))
        return data

    def _read_into(self, cid: CID, out: list) -> None:
        data = self.blockstore.get(cid)
        if not cid.verifies(data):
            raise DagError(f"block {cid} failed verification")
        if not is_dag_node(cid):
            out.append(data)
            return
        node = DagNode.deserialize(data)
        if node.data != _FILE_NODE_DATA:
            raise DagError(f"{cid} is not a UnixFS file node")
        for link in node.links:
            self._read_into(link.cid, out)
