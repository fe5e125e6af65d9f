"""Tests for CID encoding/parsing: one shape, refused otherwise."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cid import CID, CODEC_DAG_PB, CODEC_RAW
from repro.errors import EncodingError
from repro.ipfs import FixedSizeChunker, MemoryBlockstore, UnixFS
from repro.util.encoding import b32encode


# A real CIDv0 (a bare sha2-256 multihash of a dag-pb node, base58btc) and
# its binary form.
CIDV0_STRING = "QmTHEvCQrzxR7vFXmeyCptGYWddfamfc11W7UuziDtrw25"
CIDV0_BINARY = bytes.fromhex(
    "1220496aca80e4d8f29fb8e8cd816c3afb48d3f103970b3a2ee1600c08ca67326dee"
)


class TestMultihash:
    """The sha2-256 multihash inside a CID's binary form: bytes 2-35."""

    def test_of_computes_correct_digest(self):
        cid = CID.for_data(b"hello")
        assert cid.digest == hashlib.sha256(b"hello").digest()

    def test_encode_structure(self):
        encoded = CID.for_data(b"hello").to_bytes()
        assert encoded[2] == 0x12  # sha2-256 code
        assert encoded[3] == 32  # digest length
        assert len(encoded) == 36

    def test_roundtrip(self):
        cid = CID.for_data(b"data")
        assert CID.from_bytes(cid.to_bytes()) == cid

    def test_matches(self):
        cid = CID.for_data(b"data")
        assert cid.verifies(b"data")
        assert not cid.verifies(b"Data")

    def test_unknown_code_rejected(self):
        with pytest.raises(EncodingError):
            CID.from_bytes(b"\x01\x55\x99\x20" + b"\x00" * 32)

    def test_wrong_size_rejected(self):
        with pytest.raises(EncodingError):
            CID.from_bytes(b"\x01\x55\x12\x10" + b"\x00" * 16)

    def test_truncated_digest_rejected(self):
        with pytest.raises(EncodingError):
            CID.from_bytes(b"\x01\x55\x12\x20" + b"\x00" * 10)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(EncodingError):
            CID.from_bytes(CID.for_data(b"x").to_bytes() + b"\x00")


class TestOneShape:
    """Every CID is a sha2-256 CIDv1 of codec raw or dag-pb; anything else,
    as a string or in binary, is refused."""

    SHA512_V1 = b"\x01\x55\x13\x40" + bytes(64)
    UNKNOWN_CODEC = b"\x01\x71\x12\x20" + bytes(32)  # dag-cbor
    GOOD = CID.for_data(b"x").to_bytes()

    @pytest.mark.parametrize(
        "raw",
        [CIDV0_BINARY, SHA512_V1, UNKNOWN_CODEC, GOOD[:35], GOOD + b"\x00"],
        ids=["cidv0", "sha2-512", "unknown-codec", "35-bytes", "37-bytes"],
    )
    def test_refused(self, raw):
        with pytest.raises(EncodingError):
            CID.from_bytes(raw)
        with pytest.raises(EncodingError):
            CID.parse("b" + b32encode(raw))

    def test_a_cidv0_string_is_refused(self):
        with pytest.raises(EncodingError):
            CID.parse(CIDV0_STRING)


class TestGolden:
    """CIDs as the store has built them since interior nodes became dag-pb:
    the strings on the chain and the bytes in DAG nodes must not move."""

    ONE_LEAF = (
        "bafkreibga3hkdgr7yyx6c7y4vrywle266vib4hd2q6k2hnkuztuhzwyiju",
        "015512202606cea19a3fc62fe17f1cac7165935ef5501e1c7a8795a3b554cce87cdb084d",
    )
    TWO_LEAF_ROOT = (
        "bafybeics2c27bs57lgraacdr3cnwxuzy25qm4jltp52htjhzonesoj57oe",
        "0170122052d0b5f0cbbf59a2000871d89b6bd338d760ce25737f7479a4f973492727bf71",
    )

    def test_one_leaf_and_two_leaf_root(self):
        fs = UnixFS(MemoryBlockstore(), FixedSizeChunker(8))
        one = fs.add_file(b"one leaf")
        two = fs.add_file(b"two leaves, 16 B")
        assert (one.n_leaves, two.n_leaves, two.n_nodes) == (1, 2, 1)
        for cid, (text, binary) in ((one.cid, self.ONE_LEAF), (two.cid, self.TWO_LEAF_ROOT)):
            assert cid.encode() == text
            assert cid.to_bytes().hex() == binary
            assert CID.parse(text) == CID.from_bytes(bytes.fromhex(binary)) == cid


class TestCIDv1:
    def test_starts_with_b(self):
        assert CID.for_data(b"raw bytes").encode().startswith("b")

    def test_parse_roundtrip(self):
        cid = CID.for_data(b"raw bytes")
        assert CID.parse(cid.encode()) == cid

    def test_same_data_same_cid(self):
        assert CID.for_data(b"x") == CID.for_data(b"x")

    def test_different_data_different_cid(self):
        assert CID.for_data(b"x") != CID.for_data(b"y")

    def test_codec_distinguishes_cids(self):
        assert CID.for_data(b"x", codec=CODEC_RAW) != CID.for_data(b"x", codec=CODEC_DAG_PB)

    def test_verifies(self):
        cid = CID.for_data(b"payload")
        assert cid.verifies(b"payload")
        assert not cid.verifies(b"other")

    def test_hashable_and_ordered(self):
        a, b = CID.for_data(b"a"), CID.for_data(b"b")
        assert len({a, b, CID.for_data(b"a")}) == 2
        assert (a < b) or (b < a)

    def test_unrecognized_string_rejected(self):
        with pytest.raises(EncodingError):
            CID.parse("zNotACid")

    def test_garbage_base32_rejected(self):
        with pytest.raises(EncodingError):
            CID.parse("b0123!!")

    def test_codec_name(self):
        assert CID.for_data(b"x").codec_name == "raw"


@given(st.binary(max_size=256))
def test_property_cid_roundtrip(data):
    cid = CID.for_data(data)
    parsed = CID.parse(cid.encode())
    assert parsed == cid
    assert parsed.verifies(data)


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_property_cid_injective(d1, d2):
    if d1 != d2:
        assert CID.for_data(d1) != CID.for_data(d2)
