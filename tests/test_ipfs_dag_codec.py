"""The dag-pb codec of interior DAG nodes and the binary CIDs that name
their children: round trips, one exact golden vector, and strict refusal of
every byte string :meth:`DagNode.serialize` does not produce."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cid import CID, CODEC_DAG_PB, CODEC_RAW
from repro.errors import DagError, EncodingError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.dag import DagLink, DagNode, DagService, is_dag_node
from repro.util.encoding import b32encode

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

cids = st.builds(
    lambda data, codec: CID.for_data(data, codec=codec),
    st.binary(max_size=16),
    st.sampled_from([CODEC_RAW, CODEC_DAG_PB]),
)

links = st.builds(
    DagLink,
    name=st.text(max_size=12),
    cid=cids,
    tsize=st.integers(min_value=0, max_value=(1 << 63) - 1),
)


@st.composite
def nodes(draw):
    n_links = draw(st.sampled_from([0, 1, 2, 174]))
    if n_links == 174:  # a full go-ipfs fan-out of distinct leaves
        link_list = [DagLink("", CID.for_data(i.to_bytes(2, "big")), 65536) for i in range(174)]
    else:
        link_list = draw(st.lists(links, min_size=n_links, max_size=n_links))
    return DagNode(data=draw(st.binary(max_size=64)), links=tuple(link_list))


def decodes_to_itself_or_refuses(raw: bytes) -> None:
    """``raw`` decodes to a node that serializes back to ``raw`` exactly,
    or is refused with :class:`DagError` (and no other exception)."""
    try:
        node = DagNode.deserialize(raw)
    except DagError:
        return
    assert node.serialize() == raw


# A two-link node written out field by field: the format must not drift.
DIGEST_A = bytes(range(32))
DIGEST_B = bytes(range(32, 64))
GOLDEN_NODE = DagNode(
    data=b"unixfs:file",
    links=(
        DagLink("a", CID(CODEC_RAW, DIGEST_A), 300),
        DagLink("", CID(CODEC_DAG_PB, DIGEST_B), 5),
    ),
)
GOLDEN_BYTES = b"".join([
    b"\x12\x2c",                      # Links (field 2), 44 bytes
    b"\x0a\x24\x01\x55\x12\x20",      #   Hash (field 1), 36 bytes: CIDv1, raw, sha2-256, 32
    DIGEST_A,
    b"\x12\x01a",                     #   Name (field 2): "a"
    b"\x18\xac\x02",                  #   Tsize (field 3): 300
    b"\x12\x2a",                      # Links (field 2), 42 bytes
    b"\x0a\x24\x01\x70\x12\x20",      #   Hash: CIDv1, dag-pb, sha2-256, 32
    DIGEST_B,
    b"\x12\x00",                      #   Name: ""
    b"\x18\x05",                      #   Tsize: 5
    b"\x0a\x0bunixfs:file",           # Data (field 1), 11 bytes
])


class TestGoldenVector:
    def test_serialize_spells_out_the_bytes(self):
        assert GOLDEN_NODE.serialize() == GOLDEN_BYTES

    def test_deserialize_reads_them_back(self):
        assert DagNode.deserialize(GOLDEN_BYTES) == GOLDEN_NODE

    def test_a_node_is_a_dag_pb_cidv1(self):
        cid = DagService(MemoryBlockstore()).put(GOLDEN_NODE)
        assert cid.encode().startswith("bafy")
        assert is_dag_node(cid) and cid.codec == CODEC_DAG_PB
        assert not is_dag_node(GOLDEN_NODE.links[0].cid)

    def test_every_single_byte_change_truncation_and_extension(self):
        raw = GOLDEN_BYTES
        for cut in range(len(raw)):
            with pytest.raises(DagError):
                DagNode.deserialize(raw[:cut])
        for extra in range(256):
            with pytest.raises(DagError):
                DagNode.deserialize(raw + bytes([extra]))
        for pos in range(len(raw)):
            for value in range(256):
                if value != raw[pos]:
                    decodes_to_itself_or_refuses(raw[:pos] + bytes([value]) + raw[pos + 1:])


def pb_link(*fields: bytes) -> bytes:
    body = b"".join(fields)
    return b"\x12" + bytes([len(body)]) + body


HASH = b"\x0a\x24" + CID(CODEC_RAW, DIGEST_A).to_bytes()
NAME = b"\x12\x00"
TSIZE = b"\x18\x05"
DATA = b"\x0a\x00"


class TestNonCanonicalForms:
    """Byte strings a permissive protobuf reader would accept, each refused."""

    def test_the_canonical_form_decodes(self):
        raw = pb_link(HASH, NAME, TSIZE) + DATA
        assert DagNode.deserialize(raw).serialize() == raw

    @pytest.mark.parametrize("raw", [
        b"",                                          # no Data field
        pb_link(HASH, NAME, TSIZE),                   # links but no Data
        pb_link(TSIZE, HASH, NAME) + DATA,            # Tsize before Hash
        pb_link(NAME, HASH, TSIZE) + DATA,            # Name before Hash
        pb_link(HASH, TSIZE, NAME) + DATA,            # Tsize before Name
        pb_link(HASH, TSIZE) + DATA,                  # Name omitted
        pb_link(HASH, NAME) + DATA,                   # Tsize omitted
        pb_link(NAME, TSIZE) + DATA,                  # Hash omitted
        pb_link(HASH, HASH, NAME, TSIZE) + DATA,      # Hash repeated
        pb_link(HASH, NAME, TSIZE, TSIZE) + DATA,     # Tsize repeated
        pb_link(HASH, NAME, TSIZE, b"\x20\x01") + DATA,  # unknown field 4
        DATA + pb_link(HASH, NAME, TSIZE),            # Data before Links
        DATA + DATA,                                  # Data repeated
        b"\x1a\x00" + DATA,                           # unknown top-level field 3
        b"\x0a\x80\x00",                              # non-minimal Data length
        pb_link(HASH, NAME, b"\x18\x85\x00") + DATA,  # non-minimal Tsize
        pb_link(HASH, b"\x12\x01\xff", TSIZE) + DATA,  # Name is not UTF-8
        pb_link(b"\x0a\x03abc", NAME, TSIZE) + DATA,  # Hash is not a CID
        pb_link(HASH, NAME, TSIZE)[:-1] + DATA,       # link shorter than its length
        b"\x0a\x05abc",                               # Data shorter than its length
    ])
    def test_refused(self, raw):
        with pytest.raises(DagError):
            DagNode.deserialize(raw)


class TestProperties:
    @SETTINGS
    @given(nodes())
    def test_roundtrip(self, node):
        raw = node.serialize()
        assert DagNode.deserialize(raw) == node
        assert DagNode.deserialize(memoryview(raw)) == node

    @SETTINGS
    @given(nodes().filter(lambda n: len(n.links) < 100), st.data())
    def test_mutations_decode_to_themselves_or_raise_dag_error(self, node, data):
        raw = node.serialize()
        for cut in range(len(raw)):
            decodes_to_itself_or_refuses(raw[:cut])
        decodes_to_itself_or_refuses(raw + data.draw(st.binary(min_size=1, max_size=3)))
        for pos in data.draw(st.lists(st.integers(0, len(raw) - 1), max_size=40)):
            value = data.draw(st.integers(0, 255))
            decodes_to_itself_or_refuses(raw[:pos] + bytes([value]) + raw[pos + 1:])


class TestBinaryCID:
    @SETTINGS
    @given(cids)
    def test_roundtrip(self, cid):
        raw = cid.to_bytes()
        assert CID.from_bytes(raw) == cid
        assert CID.parse(cid.encode()) == cid

    @SETTINGS
    @given(cids, st.binary(min_size=1, max_size=4))
    def test_truncated_or_trailing_bytes_refused(self, cid, extra):
        raw = cid.to_bytes()
        for cut in range(len(raw)):
            with pytest.raises(EncodingError):
                CID.from_bytes(raw[:cut])
        with pytest.raises(EncodingError):
            CID.from_bytes(raw + extra)

    def test_layout(self):
        cid = CID.for_data(b"leaf")
        assert cid.to_bytes() == b"\x01\x55\x12\x20" + cid.digest
        node = CID.for_data(b"node", codec=CODEC_DAG_PB)
        assert node.to_bytes() == b"\x01\x70\x12\x20" + node.digest

    def test_a_multibase_string_must_be_cidv1(self):
        v0 = b"\x12\x20" + CID.for_data(b"node", codec=CODEC_DAG_PB).digest
        with pytest.raises(EncodingError):
            CID.parse("b" + b32encode(v0))
