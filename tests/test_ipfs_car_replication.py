"""Tests for CAR import/export and the replication manager."""

import sys
from collections import Counter

import pytest

from repro.crypto.cid import CID
from repro.errors import StorageError
from repro.ipfs import FixedSizeChunker, IpfsCluster, MemoryBlockstore, UnixFS
from repro.ipfs.car import export_car, import_car
from repro.ipfs.replication import ReplicationManager
from repro.util.rng import rng_for
from repro.util.varint import encode_varint
from tests.ipfs_helpers import leaf_cids


def make_fs():
    store = MemoryBlockstore()
    return store, UnixFS(store, chunker=FixedSizeChunker(100), fanout=4)


class TestCar:
    def test_roundtrip_single_file(self):
        src, fs = make_fs()
        data = rng_for(1, "car").bytes(1000)
        root = fs.add_file(data).cid

        car = export_car(src, [root])
        dst = MemoryBlockstore()
        roots = import_car(dst, car)
        assert roots == [root]
        assert UnixFS(dst).read_file(root) == data

    def test_multiple_roots_shared_blocks_written_once(self):
        src, fs = make_fs()
        common = rng_for(2, "car").bytes(500)
        r1 = fs.add_file(common).cid
        r2 = fs.add_file(common + b"tail-bytes" * 30).cid  # shares chunks
        car = export_car(src, [r1, r2])
        dst = MemoryBlockstore()
        import_car(dst, car)
        assert UnixFS(dst).read_file(r1) == common
        # Dedup: the CAR holds no more blocks than the source store.
        assert len(dst) <= len(src)

    def test_small_raw_file(self):
        src, fs = make_fs()
        root = fs.add_file(b"tiny").cid
        dst = MemoryBlockstore()
        import_car(dst, export_car(src, [root]))
        assert dst.get(root) == b"tiny"

    def test_empty_roots_rejected(self):
        src, _ = make_fs()
        with pytest.raises(StorageError):
            export_car(src, [])

    def test_corrupted_block_rejected(self):
        src, fs = make_fs()
        root = fs.add_file(rng_for(3, "car").bytes(300)).cid
        car = bytearray(export_car(src, [root]))
        # Flip one byte near the end (inside some block's payload).
        car[-5] ^= 0xFF
        from repro.errors import InvalidBlockError

        with pytest.raises((InvalidBlockError, StorageError)):
            import_car(MemoryBlockstore(), bytes(car))

    def test_incomplete_car_rejected(self):
        src, fs = make_fs()
        data = rng_for(4, "car").bytes(1000)
        root = fs.add_file(data).cid
        # Export, then strip the final section (drop one block).
        full = export_car(src, [root])
        partial_store = MemoryBlockstore()
        # Re-export from a store missing a leaf to force incompleteness.
        leaf = leaf_cids(fs.blockstore, root)[-1]
        for cid in src.cids():
            if cid != leaf:
                partial_store.put(cid, src.get(cid))
        with pytest.raises(StorageError, match="incomplete|not found"):
            export_car(partial_store, [root])
        # And importing a truncated byte string fails cleanly too.
        with pytest.raises(StorageError):
            import_car(MemoryBlockstore(), full[: len(full) - 40])

    def test_bad_header_rejected(self):
        with pytest.raises(StorageError):
            import_car(MemoryBlockstore(), b"\x05notjs")


class TestCarSectionsAreBinary:
    """A section names its block by the binary CID, as CARv1 does: only the
    header's roots are base32, so a 2 MiB file in 64 KiB chunks (33 blocks)
    exports and imports with one base32 call per root, not one per block."""

    @staticmethod
    def b32_calls(fn, *args):
        counts = Counter()

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name in ("b32encode", "b32decode"):
                counts[frame.f_code.co_name] += 1

        sys.setprofile(count)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        return result, counts

    def test_no_base32_inside_the_section_loop(self):
        store = MemoryBlockstore()
        fs = UnixFS(store, chunker=FixedSizeChunker(64 * 1024))
        roots = [fs.add_file(rng_for(6, "car-b32").bytes(2 << 20)).cid, fs.add_file(b"raw").cid]
        car, exported = self.b32_calls(export_car, store, roots)
        got, imported = self.b32_calls(import_car, MemoryBlockstore(), car)
        assert got == roots
        assert exported == Counter(b32encode=len(roots))
        assert imported == Counter(b32decode=len(roots))

    def test_a_section_is_its_binary_cid_then_its_bytes(self):
        src, fs = make_fs()
        root = fs.add_file(b"tiny").cid
        car = export_car(src, [root])
        section = encode_varint(36 + 4) + root.to_bytes() + b"tiny"
        assert car.endswith(section)

    def test_a_section_shorter_than_a_cid_is_refused(self):
        src, fs = make_fs()
        car = export_car(src, [fs.add_file(b"tiny").cid])
        header = car[: len(car) - 41]
        with pytest.raises(StorageError, match="shorter than a CID"):
            import_car(MemoryBlockstore(), header + encode_varint(20) + bytes(20))


class TestReplicationManager:
    def make(self, n_nodes=4, factor=2):
        cluster = IpfsCluster(n_nodes=n_nodes, chunker=FixedSizeChunker(100))
        return cluster, ReplicationManager(cluster, replication_factor=factor)

    def test_replicate_reaches_factor(self):
        cluster, mgr = self.make()
        data = rng_for(5, "rep").bytes(800)
        root = cluster.add(data, node="ipfs-0").cid
        status = mgr.replicate(root)
        assert status.healthy
        assert len(status.holders) >= 2

    def test_placement_stable(self):
        cluster, mgr = self.make()
        cid = CID.for_data(b"stable")
        assert mgr.placement(cid) == mgr.placement(cid)

    def test_placement_differs_across_cids(self):
        cluster, mgr = self.make(n_nodes=6, factor=2)
        placements = {tuple(mgr.placement(CID.for_data(bytes([i])))) for i in range(20)}
        assert len(placements) > 1  # not everything lands on the same pair

    def test_unheld_cid_rejected(self):
        _, mgr = self.make()
        with pytest.raises(StorageError, match="no cluster node holds"):
            mgr.replicate(CID.for_data(b"phantom"))

    def test_replicas_are_complete_copies(self):
        cluster, mgr = self.make()
        data = rng_for(6, "rep").bytes(1500)
        root = cluster.add(data, node="ipfs-0").cid
        status = mgr.replicate(root)
        for holder in status.holders:
            assert cluster.node(holder).cat_local(root) == data

    def test_repair_after_node_loss(self):
        cluster, mgr = self.make(n_nodes=4, factor=2)
        data = rng_for(7, "rep").bytes(900)
        root = cluster.add(data, node="ipfs-0").cid
        status = mgr.replicate(root)
        victim = status.holders[0]
        cluster.crash_node(victim)
        degraded = mgr.status(root)
        # Repair restores the factor from the surviving copy.
        repaired = mgr.repair()
        assert any(s.cid == root for s in repaired) or degraded.healthy
        assert mgr.status(root).healthy
        # Data still fully readable from any current holder.
        holder = mgr.status(root).holders[0]
        assert cluster.node(holder).cat_local(root) == data

    def test_repair_noop_when_healthy(self):
        cluster, mgr = self.make()
        root = cluster.add(rng_for(8, "rep").bytes(400)).cid
        mgr.replicate(root)
        assert mgr.repair() == []

    def test_factor_capped_by_cluster_size(self):
        cluster, mgr = self.make(n_nodes=2, factor=5)
        root = cluster.add(rng_for(9, "rep").bytes(400)).cid
        status = mgr.replicate(root)
        assert status.desired == 2
        assert status.healthy

    def test_invalid_factor_rejected(self):
        cluster = IpfsCluster(n_nodes=2)
        with pytest.raises(StorageError):
            ReplicationManager(cluster, replication_factor=0)
