"""Shared helpers for IPFS tests."""

from __future__ import annotations

from repro.crypto.cid import CID
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.dag import DagService, is_dag_node


def leaf_cids(blockstore: MemoryBlockstore, root: CID) -> list[CID]:
    """CIDs of a file's raw chunks, in file order."""
    if not is_dag_node(root):
        return [root]
    out: list[CID] = []
    for link in DagService(blockstore).get(root).links:
        out.extend(leaf_cids(blockstore, link.cid))
    return out
