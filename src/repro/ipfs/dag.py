"""Merkle DAG: a file tree's interior nodes, stored as dag-pb.

A :class:`DagNode` is data plus ordered links, each naming a child by its
binary CID (:meth:`CID.to_bytes`) with a name and the child's cumulative
size. It is a dag-pb ``PBNode``, the protobuf go-ipfs links UnixFS nodes
with, named by a CIDv1 of codec dag-pb (``bafy…``). The links come first,
each as field 2 holding a ``PBLink`` of Hash (field 1), Name (field 2) and
Tsize (field 3, a varint); Data is last, as field 1. Every field is always
written and every varint is minimal, so a node has one encoding:
:meth:`DagNode.deserialize` accepts only what :meth:`DagNode.serialize`
writes, and raises :class:`~repro.errors.DagError` on anything else.

:func:`is_dag_node` is the one test of whether a CID names such a node (or
a raw leaf).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.cid import CID, CODEC_DAG_PB
from repro.errors import DagError, EncodingError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.util.varint import decode_varint, encode_varint


def is_dag_node(cid: CID) -> bool:
    """Does ``cid`` name a DAG node (a dag-pb block with links), rather than
    a raw leaf?"""
    return cid.codec == CODEC_DAG_PB


class DagLink:
    """A named edge to a child, carrying the byte size of the subgraph under
    it (``tsize``). A read-only slotted value with a frozen dataclass's
    equality, hash and repr: a file add builds one per leaf."""

    __slots__ = ("name", "cid", "tsize")

    def __init__(self, name: str, cid: CID, tsize: int) -> None:
        if not 0 <= tsize < 1 << 63:
            raise DagError(f"link tsize {tsize} is not a 63-bit size")
        self.name, self.cid, self.tsize = name, cid, tsize

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DagLink:
            return NotImplemented
        return (self.name, self.cid, self.tsize) == (other.name, other.cid, other.tsize)

    def __hash__(self) -> int:
        return hash((self.name, self.cid, self.tsize))

    def __repr__(self) -> str:
        return f"DagLink(name={self.name!r}, cid={self.cid!r}, tsize={self.tsize!r})"


def _delimited(raw: bytes, pos: int, tag: int) -> tuple[int, int]:
    """Where the length-delimited field ``tag`` expected at ``pos`` starts
    and ends. A length below 128 is its one byte."""
    if raw[pos] != tag:
        raise DagError(f"expected dag-pb field tag 0x{tag:02x}, got 0x{raw[pos]:02x}")
    size = raw[pos + 1]
    if size < 0x80:
        return pos + 2, pos + 2 + size
    size, start = decode_varint(raw, pos + 1)
    return start, start + size


@dataclass(frozen=True)
class DagNode:
    """An immutable DAG node: payload bytes plus ordered child links."""

    data: bytes = b""
    links: tuple[DagLink, ...] = field(default_factory=tuple)

    def serialize(self) -> bytes:
        """The node's dag-pb bytes; equal nodes byte-match."""
        out = bytearray()
        for link in self.links:
            cid = link.cid.to_bytes()
            name = link.name.encode()
            body = b"".join(
                (b"\x0a", encode_varint(len(cid)), cid,
                 b"\x12", encode_varint(len(name)), name,
                 b"\x18", encode_varint(link.tsize))
            )
            out += b"\x12"
            out += encode_varint(len(body))
            out += body
        out += b"\x0a"
        out += encode_varint(len(self.data))
        out += self.data
        return bytes(out)

    @classmethod
    def deserialize(cls, raw: bytes | memoryview) -> "DagNode":
        """Decode :meth:`serialize`'s bytes: a truncated, over-long,
        reordered, repeated or unknown field, a non-minimal varint, a
        malformed CID or a name that is not UTF-8 raises :class:`DagError`."""
        if not isinstance(raw, bytes):
            raw = bytes(raw)
        links: list[DagLink] = []
        try:
            pos = 0
            while raw[pos] == 0x12:  # a Link; IndexError: no Data field
                pos, end = _delimited(raw, pos, 0x12)
                start, pos = _delimited(raw, pos, 0x0A)
                cid = CID.from_bytes(raw[start:pos])
                start, pos = _delimited(raw, pos, 0x12)
                name = raw[start:pos].decode() if pos > start else ""
                if raw[pos] != 0x18:
                    raise DagError("a dag-pb link's Name must be followed by its Tsize")
                tsize, pos = decode_varint(raw, pos + 1)
                if pos != end:
                    raise DagError("a dag-pb link's fields do not fill its length")
                links.append(DagLink(name, cid, tsize))
            start, pos = _delimited(raw, pos, 0x0A)
            if pos != len(raw):
                raise DagError("dag-pb Data does not end the node")
        except IndexError:
            raise DagError("truncated dag-pb node") from None
        except (EncodingError, UnicodeDecodeError) as exc:
            raise DagError(f"malformed dag-pb node: {exc}") from None
        return cls(data=raw[start:pos], links=tuple(links))


class DagService:
    """Put DAG nodes into a blockstore. Reading them back is the one file
    walk, :func:`repro.ipfs.unixfs.walk_file`."""

    def __init__(self, blockstore: MemoryBlockstore) -> None:
        self.blockstore = blockstore

    def put(self, node: DagNode) -> CID:
        raw = node.serialize()
        cid = CID.for_data(raw, codec=CODEC_DAG_PB)
        self.blockstore.put(cid, raw)
        return cid
