"""Shared helpers for IPFS tests."""

from __future__ import annotations

from repro.crypto.cid import CID
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.dag import DagNode, is_dag_node


def leaf_cids(blockstore: MemoryBlockstore, root: CID) -> list[CID]:
    """CIDs of a file's raw chunks, in file order."""
    if not is_dag_node(root):
        return [root]
    out: list[CID] = []
    for link in DagNode.deserialize(blockstore.get(root)).links:
        out.extend(leaf_cids(blockstore, link.cid))
    return out


def block_bytes(blockstore: MemoryBlockstore, root: CID) -> int:
    """Bytes of the distinct blocks under ``root``: its leaves and interior
    nodes, each counted once."""
    sizes: dict[CID, int] = {}

    def visit(cid: CID) -> None:
        if cid not in sizes:
            sizes[cid] = len(blockstore.get(cid))
            if is_dag_node(cid):
                for link in DagNode.deserialize(blockstore.get(cid)).links:
                    visit(link.cid)

    visit(root)
    return sum(sizes.values())
