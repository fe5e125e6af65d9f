"""Merkle DAG: linked nodes of named, sized links plus a data payload.

This is the UnixFS substrate's structural layer, equivalent to IPFS's dag-pb
but serialized as canonical dag-json (deterministic bytes → deterministic
CIDs). A :class:`DagNode` holds opaque data plus ordered links; a
:class:`DagService` persists nodes into a blockstore and re-reads them with
hash verification.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Iterator

from repro.crypto.cid import CID, CODEC_DAG_JSON
from repro.errors import DagError
from repro.ipfs.block import Block
from repro.ipfs.blockstore import MemoryBlockstore
from repro.util.serialization import canonical_json, from_canonical_json


@dataclass(frozen=True)
class DagLink:
    """A named edge to a child node, carrying the child's cumulative size.

    ``tsize`` (total size) is the full byte size of the subgraph under the
    link — what lets a reader report a file's size without touching leaves.
    """

    name: str
    cid: CID
    tsize: int

    def __post_init__(self) -> None:
        if self.tsize < 0:
            raise DagError("link tsize must be non-negative")


@dataclass(frozen=True)
class DagNode:
    """An immutable DAG node: payload bytes plus ordered child links."""

    data: bytes = b""
    links: tuple[DagLink, ...] = field(default_factory=tuple)

    def serialize(self) -> bytes:
        """Canonical dag-json rendering; identical nodes byte-match."""
        doc = {
            "data": base64.b64encode(self.data).decode("ascii"),
            "links": [
                {"name": l.name, "cid": l.cid.encode(), "tsize": l.tsize}
                for l in self.links
            ],
        }
        return canonical_json(doc)

    @classmethod
    def deserialize(cls, raw: bytes) -> "DagNode":
        doc = from_canonical_json(raw)
        if not isinstance(doc, dict) or "data" not in doc or "links" not in doc:
            raise DagError("malformed DAG node document")
        try:
            data = base64.b64decode(doc["data"], validate=True)
            links = tuple(
                DagLink(name=l["name"], cid=CID.parse(l["cid"]), tsize=int(l["tsize"]))
                for l in doc["links"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DagError(f"malformed DAG node: {exc}") from exc
        return cls(data=data, links=links)

    def cid(self) -> CID:
        return CID.for_data(self.serialize(), codec=CODEC_DAG_JSON)

    def to_block(self) -> Block:
        return Block.for_data(self.serialize(), codec=CODEC_DAG_JSON)


class DagService:
    """Put/get DAG nodes against a blockstore, with traversal helpers."""

    def __init__(self, blockstore: MemoryBlockstore) -> None:
        self.blockstore = blockstore

    def put(self, node: DagNode) -> CID:
        block = node.to_block()
        self.blockstore.put(block)
        return block.cid

    def get(self, cid: CID) -> DagNode:
        if cid.codec != CODEC_DAG_JSON:
            raise DagError(f"CID {cid} is not a DAG node (codec {cid.codec_name})")
        return DagNode.deserialize(self.blockstore.get(cid).data)

    def walk(self, root: CID) -> Iterator[tuple[CID, DagNode | None]]:
        """Depth-first pre-order walk of all blocks under ``root``.

        Yields ``(cid, node)`` for DAG nodes and ``(cid, None)`` for leaf
        (raw) blocks. Visits shared subgraphs once — the DAG may be a
        diamond, not a tree, after deduplication.
        """
        seen: set[CID] = set()
        stack = [root]
        while stack:
            cid = stack.pop()
            if cid in seen:
                continue
            seen.add(cid)
            if cid.codec == CODEC_DAG_JSON:
                node = self.get(cid)
                yield cid, node
                # Reverse to preserve left-to-right pre-order with a stack.
                stack.extend(l.cid for l in reversed(node.links))
            else:
                yield cid, None

    def referenced_cids(self, root: CID) -> set[CID]:
        """All CIDs reachable from ``root``, including it."""
        return {cid for cid, _ in self.walk(root)}
