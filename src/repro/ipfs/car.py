"""CAR (Content-Addressed aRchive) import/export.

A CAR file is the portable form of a DAG: a header naming the root CIDs
followed by the blocks themselves. It is how IPFS content moves between
systems without a network (backup, cold archival, bulk hand-off) — for the
framework, how a city archives evidence bundles or ships them to another
jurisdiction's cluster. Every imported block is hash-verified, so a CAR
from an untrusted courier is safe to ingest.

Framing (simplified from the CARv1 spec, same structure): a varint-length-
prefixed canonical-JSON header ``{"version": 1, "roots": [...]}``, then for
each block a varint-length-prefixed section of ``cid-string \\n raw-bytes``.
"""

from __future__ import annotations

from repro.crypto.cid import CID
from repro.errors import DagError, EncodingError, StorageError
from repro.ipfs.block import Block
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.dag import DagService
from repro.util.serialization import canonical_json, from_canonical_json
from repro.util.varint import decode_varint, encode_varint

CAR_VERSION = 1


def export_car(blockstore: MemoryBlockstore, roots: list[CID]) -> bytes:
    """Serialize the subgraphs under ``roots`` into a CAR byte string.

    Shared blocks are written once even when reachable from several roots,
    and each block's bytes are copied once, by the final join.
    """
    if not roots:
        raise StorageError("a CAR needs at least one root")
    dag = DagService(blockstore)
    header = canonical_json({"version": CAR_VERSION, "roots": [r.encode() for r in roots]})
    parts = [encode_varint(len(header)), header]
    written: set[CID] = set()
    for root in roots:
        for cid, _ in dag.walk(root):
            if cid in written:
                continue
            written.add(cid)
            data = blockstore.get(cid).data
            prefix = cid.encode().encode("ascii") + b"\n"
            parts += [encode_varint(len(prefix) + len(data)), prefix, data]
    return b"".join(parts)


def import_car(blockstore: MemoryBlockstore, raw: bytes) -> list[CID]:
    """Load a CAR into a blockstore, verifying every block; returns roots.

    Fails if any root's subgraph is incomplete after the import — a CAR
    that promises a root must deliver every block under it.
    """
    header_len, pos = decode_varint(raw)
    try:
        header = from_canonical_json(raw[pos : pos + header_len])
    except EncodingError as exc:
        raise StorageError(f"bad CAR header: {exc}") from exc
    if not isinstance(header, dict) or header.get("version") != CAR_VERSION:
        raise StorageError("unsupported CAR version")
    try:
        roots = [CID.parse(r) for r in header["roots"]]
    except (KeyError, TypeError, EncodingError) as exc:
        raise StorageError(f"bad CAR roots: {exc}") from exc
    pos += header_len

    view = memoryview(raw)
    while pos < len(raw):
        section_len, pos = decode_varint(raw, pos)
        end = pos + section_len
        if end > len(raw):
            raise StorageError("truncated CAR section")
        sep = raw.find(b"\n", pos, end)
        if sep < 0:
            raise StorageError("malformed CAR section (no CID delimiter)")
        cid = CID.parse(raw[pos:sep].decode("ascii"))
        # Block.verified raises InvalidBlockError on any hash mismatch and
        # makes the block's one copy out of the view.
        blockstore.put(cid, Block.verified(cid, view[sep + 1 : end]).data)
        pos = end

    dag = DagService(blockstore)
    for root in roots:
        try:
            for _cid, _node in dag.walk(root):
                pass
        except (StorageError, DagError) as exc:
            raise StorageError(f"CAR incomplete under root {root}: {exc}") from exc
    return roots
