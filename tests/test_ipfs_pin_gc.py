"""Tests for pinning and garbage collection."""

import pytest

from repro.crypto.cid import CID
from repro.errors import PinError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.chunker import FixedSizeChunker
from repro.ipfs.dag import DagService
from repro.ipfs.pin import PinManager, collect_garbage
from repro.ipfs.unixfs import UnixFS
from repro.util.rng import rng_for


def make_fs():
    store = MemoryBlockstore()
    return store, UnixFS(store, chunker=FixedSizeChunker(100), fanout=4)


class TestPinManager:
    def test_pin_and_check(self):
        pins = PinManager()
        cid = CID.for_data(b"x")
        pins.pin(cid)
        assert cid in pins.recursive

    def test_unpin(self):
        pins = PinManager()
        cid = CID.for_data(b"x")
        pins.pin(cid)
        pins.unpin(cid)
        assert cid not in pins.recursive | pins.direct

    def test_unpin_never_pinned_raises(self):
        with pytest.raises(PinError):
            PinManager().unpin(CID.for_data(b"x"))

    def test_direct_pin_upgrade_to_recursive(self):
        pins = PinManager()
        cid = CID.for_data(b"x")
        pins.pin(cid, recursive=False)
        pins.pin(cid, recursive=True)
        assert cid in pins.recursive and cid not in pins.direct

    def test_direct_pin_on_recursive_rejected(self):
        pins = PinManager()
        cid = CID.for_data(b"x")
        pins.pin(cid, recursive=True)
        with pytest.raises(PinError):
            pins.pin(cid, recursive=False)


class TestGC:
    def test_gc_keeps_pinned_tree(self):
        store, fs = make_fs()
        data = rng_for(1, "gc").bytes(1000)
        result = fs.add_file(data)
        pins = PinManager()
        pins.pin(result.cid)
        gc = collect_garbage(store, pins, DagService(store))
        assert gc.removed == 0
        assert fs.read_file(result.cid) == data

    def test_gc_removes_unpinned_tree(self):
        store, fs = make_fs()
        keep = fs.add_file(rng_for(2, "gc").bytes(1000))
        drop = fs.add_file(rng_for(3, "gc").bytes(1000))
        pins = PinManager()
        pins.pin(keep.cid)
        gc = collect_garbage(store, pins, DagService(store))
        assert gc.removed > 0
        assert gc.reclaimed_bytes > 0
        assert store.has(keep.cid)
        assert not store.has(drop.cid)

    def test_gc_respects_shared_blocks(self):
        """A block shared by a pinned and an unpinned file must survive."""
        store, fs = make_fs()
        common = rng_for(4, "gc").bytes(500)
        unique = rng_for(5, "gc").bytes(500)
        kept = fs.add_file(common)
        fs.add_file(common + unique)  # shares leading chunks with `kept`
        pins = PinManager()
        pins.pin(kept.cid)
        collect_garbage(store, pins, DagService(store))
        assert fs.read_file(kept.cid) == common

    def test_gc_direct_pin_keeps_only_that_block(self):
        store, fs = make_fs()
        result = fs.add_file(rng_for(6, "gc").bytes(1000))
        pins = PinManager()
        pins.pin(result.cid, recursive=False)  # root only, not children
        collect_garbage(store, pins, DagService(store))
        assert store.has(result.cid)
        assert len(store) == 1

    def test_gc_empty_store(self):
        store = MemoryBlockstore()
        gc = collect_garbage(store, PinManager(), DagService(store))
        assert gc.removed == 0 and gc.kept == 0
