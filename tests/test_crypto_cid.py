"""Tests for multihash and CID encoding/parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cid import CID, CODEC_DAG_PB, CODEC_RAW
from repro.crypto.hashing import SHA2_512, digest
from repro.crypto.multihash import CODE_SHA2_256, Multihash
from repro.errors import EncodingError


class TestMultihash:
    def test_of_computes_correct_digest(self):
        mh = Multihash.of(b"hello")
        assert mh.code == CODE_SHA2_256
        assert mh.digest == digest(b"hello")

    def test_encode_structure(self):
        mh = Multihash.of(b"hello")
        encoded = mh.encode()
        assert encoded[0] == 0x12  # sha2-256 code
        assert encoded[1] == 32  # digest length
        assert len(encoded) == 34

    def test_roundtrip(self):
        mh = Multihash.of(b"data")
        assert Multihash.decode(mh.encode()) == mh

    def test_sha512_roundtrip(self):
        mh = Multihash.of(b"data", algo=SHA2_512)
        assert Multihash.decode(mh.encode()) == mh
        assert mh.algo == SHA2_512

    def test_matches(self):
        mh = Multihash.of(b"data")
        assert mh.matches(b"data")
        assert not mh.matches(b"Data")

    def test_unknown_code_rejected(self):
        with pytest.raises(EncodingError):
            Multihash.decode(b"\x99\x20" + b"\x00" * 32)

    def test_wrong_size_rejected(self):
        with pytest.raises(EncodingError):
            Multihash.decode(b"\x12\x10" + b"\x00" * 16)

    def test_truncated_digest_rejected(self):
        with pytest.raises(EncodingError):
            Multihash.decode(b"\x12\x20" + b"\x00" * 10)

    def test_trailing_bytes_rejected(self):
        mh = Multihash.of(b"x")
        with pytest.raises(EncodingError):
            Multihash.decode(mh.encode() + b"\x00")


class TestCIDv0:
    def test_starts_with_qm(self):
        cid = CID.for_data(b"block", codec=CODEC_DAG_PB, version=0)
        assert cid.encode().startswith("Qm")
        assert len(cid.encode()) == 46

    def test_parse_roundtrip(self):
        cid = CID.for_data(b"block", codec=CODEC_DAG_PB, version=0)
        assert CID.parse(cid.encode()) == cid

    def test_v0_requires_dag_pb(self):
        with pytest.raises(EncodingError):
            CID.for_data(b"x", codec=CODEC_RAW, version=0)

    def test_v0_requires_sha256(self):
        with pytest.raises(EncodingError):
            CID.for_data(b"x", codec=CODEC_DAG_PB, version=0, algo=SHA2_512)

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
