"""Tests for blocks and the blockstore."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cid import CID
from repro.errors import BlockNotFoundError, InvalidBlockError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.car import export_car, import_car


def stored(store: MemoryBlockstore, data: bytes) -> CID:
    """Put ``data`` under its CID; returns the CID."""
    cid = CID.for_data(data)
    store.put(cid, data)
    return cid


class TestBlock:
    """A block is its bytes, stored under the CID they hash to."""

    def test_for_data_derives_cid(self):
        store = MemoryBlockstore()
        cid = stored(store, b"payload")
        assert cid == CID.for_data(b"payload") and cid.verifies(store.get(cid))

    # Bytes from outside (here a CAR; bitswap likewise) are hashed against
    # the CID they came under before they are stored, as their own copy.

    def test_verified_accepts_matching(self):
        src, dst = MemoryBlockstore(), MemoryBlockstore()
        cid = stored(src, b"payload")
        assert import_car(dst, export_car(src, [cid])) == [cid]
        assert type(dst.get(cid)) is bytes and dst.get(cid) == b"payload"

    def test_verified_rejects_mismatch(self):
        src = MemoryBlockstore()
        cid = stored(src, b"payload")
        src.corrupt(cid, b"tampered")
        with pytest.raises(InvalidBlockError):
            import_car(MemoryBlockstore(), export_car(src, [cid]))

    def test_len(self):
        store = MemoryBlockstore()
        assert len(store.get(stored(store, b"abc"))) == 3


class TestBlockstores:
    def test_put_get_roundtrip(self):
        store = MemoryBlockstore()
        assert store.get(stored(store, b"hello")) == b"hello"

    def test_has(self):
        store = MemoryBlockstore()
        cid = CID.for_data(b"hello")
        assert not store.has(cid)
        store.put(cid, b"hello")
        assert store.has(cid)

    def test_get_missing_raises(self):
        store = MemoryBlockstore()
        with pytest.raises(BlockNotFoundError):
            store.get(CID.for_data(b"nothing"))

    def test_delete(self):
        store = MemoryBlockstore()
        cid = stored(store, b"gone")
        store.delete(cid)
        assert not store.has(cid)

    def test_delete_missing_is_noop(self):
        store = MemoryBlockstore()
        store.delete(CID.for_data(b"never"))  # must not raise

    def test_dedup_identical_blocks(self):
        store = MemoryBlockstore()
        stored(store, b"same")
        stored(store, b"same")
        assert len(store) == 1
        assert store.stats.bytes_written == 4

    def test_cids_enumerates_all(self):
        store = MemoryBlockstore()
        cids = {stored(store, bytes([i]) * 10) for i in range(5)}
        assert set(store.cids()) == cids

    def test_stats_track_hits_and_misses(self):
        store = MemoryBlockstore()
        store.get(stored(store, b"x"))
        with pytest.raises(BlockNotFoundError):
            store.get(CID.for_data(b"y"))
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=8, unique=True))
    def test_property_roundtrip_many(self, payloads):
        store = MemoryBlockstore()
        cids = [stored(store, p) for p in payloads]
        for cid, data in zip(cids, payloads):
            assert store.get(cid) == data
