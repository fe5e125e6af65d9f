"""CAR (Content-Addressed aRchive) import/export.

A CAR file is the portable form of a DAG: a header naming the root CIDs
followed by the blocks themselves. It is how IPFS content moves between
systems without a network (backup, cold archival, bulk hand-off) — for the
framework, how a city archives evidence bundles or ships them to another
jurisdiction's cluster. Export and import are each the one file walk
(:func:`~repro.ipfs.unixfs.walk_file`), so every block is hashed once, as
it is taken, and a CAR from an untrusted courier is safe to ingest.

Framing (simplified from the CARv1 spec, same structure): a varint-length-
prefixed canonical-JSON header ``{"version": 1, "roots": [...]}`` naming the
roots by their strings, then for each block a section framed as CARv1 frames
it, ``<varint length><36-byte binary CID><raw bytes>`` — so writing and
reading the blocks renders and parses no base32.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.cid import CID, CID_SIZE
from repro.errors import (
    BlockNotFoundError,
    DagError,
    EncodingError,
    InvalidBlockError,
    StorageError,
)
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.unixfs import Fetch, checked, walk_file
from repro.util.serialization import canonical_json, from_canonical_json
from repro.util.varint import decode_varint, encode_varint

CAR_VERSION = 1


def export_car(
    blockstore: MemoryBlockstore,
    roots: list[CID],
    fetcher: Callable[[CID], Fetch] | None = None,
) -> bytes:
    """Serialize the files under ``roots`` into a CAR byte string.

    One walk per root reads the blocks as a read does (:func:`checked`): each
    is hashed as it is taken, and ``fetcher(root)``, when given, supplies
    the blocks under ``root`` the store lacks. Shared blocks are written
    once even when reachable from several roots, and each block's bytes are
    copied once, by the final join.
    """
    if not roots:
        raise StorageError("a CAR needs at least one root")
    header = canonical_json({"version": CAR_VERSION, "roots": [r.encode() for r in roots]})
    parts = [encode_varint(len(header)), header]
    take = None

    def section(cid: CID) -> bytes | memoryview:
        data = take(cid)
        binary = cid.to_bytes()
        parts.extend((encode_varint(len(binary) + len(data)), binary, data))
        return data

    seen: set[CID] = set()
    for root in roots:
        take = checked(blockstore, fetcher(root) if fetcher is not None else None)
        walk_file(root, section, seen=seen)
    return b"".join(parts)


def import_car(blockstore: MemoryBlockstore, raw: bytes) -> list[CID]:
    """Load the files a CAR names into a blockstore; returns its roots.

    One walk per root takes each block from the blockstore, hashed, or, when
    the store lacks it, from the CAR section that names it, which is hashed
    against that CID (:class:`InvalidBlockError` if it fails) and then
    stored as the block's one copy. A root whose file the CAR does not
    complete fails the import; a section under no root is not stored.
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
    sections: dict[CID, memoryview] = {}
    while pos < len(raw):
        section_len, pos = decode_varint(raw, pos)
        end = pos + section_len
        if end > len(raw):
            raise StorageError("truncated CAR section")
        body = pos + CID_SIZE
        if body > end:
            raise StorageError("malformed CAR section (shorter than a CID)")
        try:
            cid = CID.from_bytes(raw[pos:body])
        except EncodingError as exc:
            raise StorageError(f"malformed CAR section: {exc}") from exc
        sections[cid] = view[body:end]
        pos = end

    def from_car(cid: CID) -> bytes:
        if cid not in sections:
            raise BlockNotFoundError(cid)
        if not cid.verifies(sections[cid]):
            raise InvalidBlockError(f"data does not hash to {cid}")
        data = bytes(sections[cid])
        blockstore.put(cid, data)
        return data

    take = checked(blockstore, from_car)
    seen: set[CID] = set()
    for root in roots:
        try:
            walk_file(root, take, seen=seen)
        except (BlockNotFoundError, DagError) as exc:
            raise StorageError(f"CAR incomplete under root {root}: {exc}") from exc
    return roots
