"""Tests for blocks and the blockstore."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cid import CID
from repro.errors import BlockNotFoundError, InvalidBlockError
from repro.ipfs.block import Block
from repro.ipfs.blockstore import MemoryBlockstore


class TestBlock:
    def test_for_data_derives_cid(self):
        block = Block.for_data(b"payload")
        assert block.cid == CID.for_data(b"payload")

    def test_verified_accepts_matching(self):
        cid = CID.for_data(b"payload")
        assert Block.verified(cid, b"payload").data == b"payload"

    def test_verified_rejects_mismatch(self):
        cid = CID.for_data(b"payload")
        with pytest.raises(InvalidBlockError):
            Block.verified(cid, b"tampered")

    def test_len(self):
        assert len(Block.for_data(b"abc")) == 3


class TestBlockstores:
    def test_put_get_roundtrip(self):
        store = MemoryBlockstore()
        block = Block.for_data(b"hello")
        store.put(block.cid, block.data)
        assert store.get(block.cid).data == b"hello"

    def test_has(self):
        store = MemoryBlockstore()
        block = Block.for_data(b"hello")
        assert not store.has(block.cid)
        store.put(block.cid, block.data)
        assert store.has(block.cid)

    def test_get_missing_raises(self):
        store = MemoryBlockstore()
        with pytest.raises(BlockNotFoundError):
            store.get(CID.for_data(b"nothing"))

    def test_delete(self):
        store = MemoryBlockstore()
        block = Block.for_data(b"gone")
        store.put(block.cid, block.data)
        store.delete(block.cid)
        assert not store.has(block.cid)

    def test_delete_missing_is_noop(self):
        store = MemoryBlockstore()
        store.delete(CID.for_data(b"never"))  # must not raise

    def test_dedup_identical_blocks(self):
        store = MemoryBlockstore()
        block = Block.for_data(b"same")
        store.put(block.cid, block.data)
        store.put(block.cid, block.data)
        assert len(store) == 1
        assert store.stats.bytes_written == 4

    def test_cids_enumerates_all(self):
        store = MemoryBlockstore()
        blocks = [Block.for_data(bytes([i]) * 10) for i in range(5)]
        for b in blocks:
            store.put(b.cid, b.data)
        assert set(store.cids()) == {b.cid for b in blocks}

    def test_stats_track_hits_and_misses(self):
        store = MemoryBlockstore()
        block = Block.for_data(b"x")
        store.put(block.cid, block.data)
        store.get(block.cid)
        with pytest.raises(BlockNotFoundError):
            store.get(CID.for_data(b"y"))
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=8, unique=True))
    def test_property_roundtrip_many(self, payloads):
        store = MemoryBlockstore()
        blocks = [Block.for_data(p) for p in payloads]
        for b in blocks:
            store.put(b.cid, b.data)
        for b in blocks:
            assert store.get(b.cid).data == b.data
