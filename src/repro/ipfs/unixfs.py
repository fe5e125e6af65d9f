"""UnixFS-like file layer: files as balanced Merkle-DAG trees of chunks.

``add_file`` stores each chunk as a raw leaf for one sha2-256, one CID and
one blockstore put, then builds a fan-out tree of dag-pb nodes bottom-up
(default fan-out 174, matching go-ipfs) whose data is the marker
``unixfs:file``, not go-ipfs's UnixFS protobuf; a single-chunk file is
stored as one raw block with no envelope, exactly as IPFS does.

:func:`walk_file` is the one walk of a file's blocks, depth first and in
file order from its root: a read, a replica copy, a CAR export or import, a
quarantine and an audit are each that walk with their own ``take``, the
function that hands it a block's bytes. :func:`checked` is the take of every
read: a block from the local store is hashed against the CID that names it
as it is taken, and a missing one comes from a block source — bitswap, a
CAR — that hashes it where it enters and stores it only after the check.
So each block a read touches is hashed once, wherever it came from, and
there is no unverified read: the CID is the on-chain commitment to the
payload, so a read that returns bytes has proven them against it.

Each payload byte is copied at most once: the leaves of a file added here
are views of its payload (a mutable input is frozen into ``bytes`` first),
and a read joins the leaves once, so a one-leaf file reads back as itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.crypto.cid import CID, CODEC_DAG_PB
from repro.errors import BlockNotFoundError, DagError, StorageError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.chunker import Chunker, FixedSizeChunker
from repro.ipfs.dag import DagLink, DagNode, DagService
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

    def read_file(self, root: CID, fetch: Fetch | None = None) -> bytes:
        """Reassemble a file by one :func:`walk_file` that takes its blocks
        :func:`checked`: a rotted or substituted block, interior or leaf,
        raises :class:`~repro.errors.DagError`, and a missing one, with no
        ``fetch``, :class:`~repro.errors.BlockNotFoundError`."""
        parts: list[bytes | memoryview] = []
        with profiled("ipfs.read") as pf:
            walk_file(root, checked(self.blockstore, fetch), parts)
            data = b"".join(parts)  # a lone ``bytes`` leaf comes back as is
            pf.add_bytes(len(data))
        return data


# A take hands the walk a block's bytes (``None``: skip the block and what is
# under it); a fetch gets a block the local store lacks, checked and stored.
Take = Callable[[CID], "bytes | memoryview | None"]
Fetch = Callable[[CID], "bytes | memoryview"]


def walk_file(cid: CID, take: Take, out: list | None = None, seen: set | None = None) -> None:
    """Walk the file under ``cid`` depth first, in file order, taking each
    block once from ``take`` and appending a leaf's bytes to ``out``. An
    interior node must be a UnixFS file node. With a ``seen`` set, a block
    reached again — a subtree two files share, or a second root — is not."""
    if seen is not None:
        if cid in seen:
            return
        seen.add(cid)
    data = take(cid)
    if data is None:
        return
    if cid.codec != CODEC_DAG_PB:  # is_dag_node, inline: once per block read
        if out is not None:
            out.append(data)
        return
    node = DagNode.deserialize(data)
    if node.data != _FILE_NODE_DATA:
        raise DagError(f"{cid} is not a UnixFS file node")
    for link in node.links:
        walk_file(link.cid, take, out, seen)


def checked(blockstore: MemoryBlockstore, fetch: Fetch | None = None) -> Take:
    """The take of a read: a block from ``blockstore``, hashed against its
    CID (:class:`~repro.errors.DagError` if it fails), or, when the store
    lacks it, from ``fetch``, which has checked it where it entered."""

    def take(cid: CID) -> bytes | memoryview:
        try:
            data = blockstore.get(cid)
        except BlockNotFoundError:
            if fetch is None:
                raise
            return fetch(cid)
        if not cid.verifies(data):
            raise DagError(f"block {cid} failed verification")
        return data

    return take


def check_stored(blockstore: MemoryBlockstore, root: CID) -> dict[CID, bool]:
    """Whether each block under ``root`` that ``blockstore`` holds hashes to
    its CID, by the one walk. Nothing below a failed block is followed, and
    a missing one is skipped: this checks a copy, whole or partial."""
    verdicts: dict[CID, bool] = {}

    def take(cid: CID) -> bytes | memoryview | None:
        if not blockstore.has(cid):
            return None
        data = blockstore.get(cid)
        verdicts[cid] = cid.verifies(data)
        return data if verdicts[cid] else None

    walk_file(root, take, seen=set())
    return verdicts
