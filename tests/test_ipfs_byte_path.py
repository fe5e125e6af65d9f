"""The off-chain tier copies each payload byte at most once.

A file added on a node is stored as read-only views of its payload (no
copy), a read joins its leaves once, a CAR export or import copies each
block once, and a block that crosses into another store (bitswap, CAR) is
that store's own ``bytes``. A payload that is not bytes-like is refused
with :class:`StorageError` at every add boundary.
"""

import hashlib
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.errors import DagError, StorageError
from repro.ipfs import FixedSizeChunker, IpfsCluster, MemoryBlockstore, RollingChunker, UnixFS
from repro.ipfs.car import export_car, import_car
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.trust import SourceTier
from repro.util.rng import rng_for
from repro.workloads.traffic import IngestItem
from tests.ipfs_helpers import leaf_cids

KIB = 1 << 10
CHUNK = 64 * KIB
BIG = rng_for(42, "car-golden").bytes(2 << 20)
BAD_PAYLOADS = ["text", 5, None]
META = {"timestamp": 1.0, "detections": []}


def make_fs(chunker=None):
    return UnixFS(MemoryBlockstore(), chunker or FixedSizeChunker(CHUNK))


def traced(call):
    """(result, bytes still allocated, peak bytes) of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def rot(data) -> memoryview:
    """A view-backed stand-in for ``data`` with every byte flipped."""
    return memoryview(bytes(b ^ 0xFF for b in bytes(data)))[:]


class TestAddCopiesNothing:
    def test_add_retains_no_copy_of_the_payload(self):
        fs = make_fs()
        fs.add_file(BIG[:3 * CHUNK])  # warm lazily built state
        result, retained, _ = traced(lambda: fs.add_file(BIG))
        assert result.n_leaves == len(BIG) // CHUNK
        assert retained < CHUNK

    @pytest.mark.parametrize("chunker", [FixedSizeChunker(CHUNK), RollingChunker(CHUNK)])
    def test_leaves_are_read_only_views_of_the_payload(self, chunker):
        fs = make_fs(chunker)
        root = fs.add_file(BIG).cid
        for leaf in leaf_cids(fs.blockstore, root):
            data = fs.blockstore.get(leaf)
            assert isinstance(data, memoryview) and data.readonly and data.obj is BIG

    @pytest.mark.parametrize("chunker", [FixedSizeChunker(CHUNK), RollingChunker(CHUNK)])
    def test_one_chunk_payload_is_stored_and_read_as_itself(self, chunker):
        fs = make_fs(chunker)
        data = bytes(BIG[: CHUNK // 8])
        cid = fs.add_file(data).cid
        assert fs.blockstore.get(cid) is data
        assert fs.read_file(cid) is data

    @pytest.mark.parametrize("size", [100, 3 * CHUNK + 5])
    def test_buffer_edited_after_add_does_not_change_the_file(self, size):
        fs = make_fs()
        original = BIG[:size]
        buf = bytearray(original)
        cid = fs.add_file(buf).cid
        buf[:] = bytes(size)
        assert fs.read_file(cid) == original


class TestReadJoinsOnce:
    def test_read_peaks_at_one_copy(self):
        fs = make_fs()
        cid = fs.add_file(BIG).cid
        fs.read_file(cid)  # warm lazily built state
        out, _, peak = traced(lambda: fs.read_file(cid))
        assert out == BIG and type(out) is bytes
        assert peak <= len(BIG) + CHUNK

    def test_one_leaf_shared_with_a_larger_file_reads_back_as_bytes(self):
        fs = make_fs()
        fs.add_file(BIG)
        cid = fs.add_file(BIG[:CHUNK]).cid  # dedups onto the big file's view
        out = fs.read_file(cid)
        assert type(out) is bytes and out == BIG[:CHUNK]


class TestRotOfAViewIsCaught:
    def test_read_file_verifies_view_backed_leaves(self):
        fs = make_fs()
        cid = fs.add_file(BIG).cid
        leaf = leaf_cids(fs.blockstore, cid)[3]
        fs.blockstore.corrupt(leaf, rot(fs.blockstore.get(leaf)))
        with pytest.raises(DagError):
            fs.read_file(cid)

    def test_restart_rehash_drops_the_rotted_leaf(self):
        cluster = IpfsCluster(n_nodes=2, chunker=FixedSizeChunker(CHUNK))
        cid = cluster.add(BIG, node="ipfs-0").cid
        node = cluster.node("ipfs-0")
        leaf = leaf_cids(node.blockstore, cid)[5]
        cluster.crash_node("ipfs-0")
        node.blockstore.corrupt(leaf, rot(node.blockstore.get(leaf)))
        assert cluster.restart_node("ipfs-0") == 1
        assert not node.blockstore.has(leaf)

    def test_restart_rehash_renders_no_base32(self):
        """The rehash orders the blocks by their binary CIDs: a restart of a
        node holding a 33-block file calls ``b32encode`` not once."""
        cluster = IpfsCluster(n_nodes=2, chunker=FixedSizeChunker(CHUNK))
        cluster.add(BIG, node="ipfs-0")
        cluster.crash_node("ipfs-0")
        calls = Counter()

        def count(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(count)
        try:
            removed = cluster.restart_node("ipfs-0")
        finally:
            sys.setprofile(None)
        assert removed == 0
        assert calls["verifies"] == 33
        assert calls["b32encode"] == 0

    def test_retrieve_quarantines_and_refetches(self):
        set_registry(MetricsRegistry())
        framework = Framework(FrameworkConfig(consensus="solo"))
        client = Client(framework, framework.register_source("bp-cam", tier=SourceTier.TRUSTED))
        data = BIG[: 4 * framework.config.chunk_size]
        receipt = client.submit(data, dict(META))
        cid = CID.parse(receipt.cid)
        reader = framework.ipfs.node("ipfs-0")
        framework.ipfs.cat(cid, node="ipfs-1")  # a clean copy elsewhere
        leaf = leaf_cids(reader.blockstore, cid)[-1]
        assert isinstance(reader.blockstore.get(leaf), memoryview)
        reader.blockstore.corrupt(leaf, rot(reader.blockstore.get(leaf)))
        result = client.retrieve(receipt.entry_id)
        counters = get_registry().snapshot()["counters"]
        assert result.verified and result.data == data
        assert counters.get("integrity_refetch_total", 0) == 1
        assert counters.get("ipfs_quarantined_blocks_total", 0) == 1


class TestTransferCopies:
    def test_bitswap_fetch_stores_the_fetchers_own_bytes(self):
        cluster = IpfsCluster(n_nodes=2, chunker=FixedSizeChunker(CHUNK))
        cid = cluster.add(BIG, node="ipfs-0").cid
        adder, fetcher = cluster.node("ipfs-0"), cluster.node("ipfs-1")
        assert cluster.cat(cid, node="ipfs-1") == BIG
        for leaf in leaf_cids(adder.blockstore, cid):
            assert type(fetcher.blockstore.get(leaf)) is bytes
            adder.blockstore.corrupt(leaf, b"rot")
        assert fetcher.unixfs.read_file(cid) == BIG


class TestTypedErrorAtTheAddBoundary:
    @pytest.mark.parametrize("bad", BAD_PAYLOADS)
    def test_unixfs_and_cluster_add(self, bad):
        fs = make_fs()
        with pytest.raises(StorageError):
            fs.add_file(bad)
        assert len(fs.blockstore) == 0
        cluster = IpfsCluster(n_nodes=2)
        with pytest.raises(StorageError):
            cluster.add(bad)
        assert cluster.stat().total_blocks == 0

    @pytest.mark.parametrize("bad", BAD_PAYLOADS)
    def test_add_many_stores_and_announces_nothing_after_the_bad_payload(self, bad):
        cluster = IpfsCluster(n_nodes=2)
        after = b"after the bad one"
        with pytest.raises(StorageError):
            cluster.add_many([b"before", bad, after])
        cid = CID.for_data(after)
        assert not any(n.blockstore.has(cid) for n in cluster.nodes.values())
        assert cluster.providers_for(cid, "ipfs-1") == []
        assert cluster.providers_for(CID.for_data(b"before"), "ipfs-1") == []

    @pytest.mark.parametrize("bad", BAD_PAYLOADS)
    def test_ingest_and_submit(self, bad):
        framework = Framework(FrameworkConfig(consensus="solo"))
        identity = framework.register_source("bp-cam", tier=SourceTier.TRUSTED)
        ingestor = BatchIngestor(framework)
        ingestor.register(identity)
        height = framework.channel.height()
        item = IngestItem(source_id="bp-cam", payload=bad, metadata=dict(META), observation=None)
        with pytest.raises(StorageError):
            ingestor.ingest([item])
        with pytest.raises(StorageError):
            Client(framework, identity).submit(bad, dict(META))
        assert framework.ipfs.stat().total_blocks == 0
        assert framework.channel.height() == height


class TestCarCopiesOnce:
    # sha256 of the archive below: dag-pb interior nodes, and sections that
    # name their block by the 36-byte binary CID, as CARv1 does.
    GOLDEN = "5e295f44a54ea2e16ef0495d07995001c017a818cd8707c8a630920145593214"

    @staticmethod
    def site():
        fs = make_fs()
        roots = [fs.add_file(data).cid for data in (BIG, b"one raw block", BIG[:100_000])]
        return fs, roots

    def test_export_is_byte_identical(self):
        fs, roots = self.site()
        assert hashlib.sha256(export_car(fs.blockstore, roots)).hexdigest() == self.GOLDEN

    def test_export_and_import_peak_near_the_archive_size(self):
        fs, roots = self.site()
        car, _, peak = traced(lambda: export_car(fs.blockstore, roots))
        assert peak <= 1.2 * len(car)
        store = MemoryBlockstore()
        got, _, peak = traced(lambda: import_car(store, car))
        assert got == roots and peak <= 1.2 * len(car)
        assert all(type(store.get(cid)) is bytes for cid in store.cids())
        assert UnixFS(store).read_file(roots[0]) == BIG
