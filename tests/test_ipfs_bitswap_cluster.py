"""Tests for bitswap exchange, IpfsNode, and the cluster as a whole."""

import pytest

from repro.crypto.cid import CID
from repro.errors import BlockNotFoundError, StorageError
from repro.ipfs.bitswap import Engine
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.chunker import FixedSizeChunker
from repro.ipfs.cluster import IpfsCluster
from repro.ipfs.node import IpfsNode
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.util.rng import rng_for
from tests.ipfs_helpers import leaf_cids


def pair():
    a = Engine("a", MemoryBlockstore())
    b = Engine("b", MemoryBlockstore())
    a.connect(b)
    return a, b


class TestBitswapEngine:
    def test_fetch_from_peer(self):
        a, b = pair()
        data = b"shared block"
        cid = CID.for_data(data)
        b.blockstore.put(cid, data)
        got = a.want(cid, ["b"])
        assert got == b"shared block"
        assert a.blockstore.has(cid)

    def test_ledger_accounting_both_sides(self):
        a, b = pair()
        data = b"x" * 100
        cid = CID.for_data(data)
        b.blockstore.put(cid, data)
        a.want(cid, ["b"])
        assert a.ledger_for("b").bytes_received == 100
        assert b.ledger_for("a").bytes_sent == 100

    def test_missing_everywhere_raises(self):
        a, _ = pair()
        with pytest.raises(BlockNotFoundError):
            a.want(CID.for_data(b"ghost"), ["b"])
        assert a.stats.fetch_failures == 1

    def test_unknown_provider_skipped(self):
        a, b = pair()
        data = b"data"
        cid = CID.for_data(data)
        b.blockstore.put(cid, data)
        got = a.want(cid, ["not-connected", "b"])
        assert got == b"data"

    def test_freeloader_refused_after_grace(self):
        a, b = pair()
        # Simulate a long history: b already sent a far more than grace.
        ledger = b.ledger_for("a")
        ledger.bytes_sent = Engine.GRACE_BYTES * 10
        ledger.bytes_received = 0
        data = b"now refused"
        cid = CID.for_data(data)
        b.blockstore.put(cid, data)
        with pytest.raises(BlockNotFoundError):
            a.want(cid, ["b"])
        assert b.stats.refusals == 1

    def test_reciprocating_peer_served(self):
        a, b = pair()
        ledger = b.ledger_for("a")
        ledger.bytes_sent = Engine.GRACE_BYTES * 10
        ledger.bytes_received = Engine.GRACE_BYTES * 9  # healthy ratio
        data = b"served"
        cid = CID.for_data(data)
        b.blockstore.put(cid, data)
        assert a.want(cid, ["b"]) == b"served"

    def test_on_transfer_callback(self):
        a, b = pair()
        data = b"y" * 64
        cid = CID.for_data(data)
        b.blockstore.put(cid, data)
        calls = []
        a.want(cid, ["b"], on_transfer=lambda peer, n: calls.append((peer, n)))
        assert calls == [("b", 64)]


class TestIpfsNode:
    def test_add_and_cat_local(self):
        node = IpfsNode("n0", chunker=FixedSizeChunker(100))
        data = rng_for(1, "node").bytes(550)
        result = node.add_bytes(data)
        assert node.unixfs.read_file(result.cid) == data


class TestIpfsCluster:
    def test_add_then_cat_same_node(self):
        cluster = IpfsCluster(n_nodes=2, chunker=FixedSizeChunker(100))
        data = rng_for(3, "cluster").bytes(1000)
        result = cluster.add(data, node="ipfs-0")
        assert cluster.cat(result.cid, node="ipfs-0") == data

    def test_cross_node_retrieval_via_dht_and_bitswap(self):
        cluster = IpfsCluster(n_nodes=3, chunker=FixedSizeChunker(100))
        data = rng_for(4, "cluster").bytes(2000)
        result = cluster.add(data, node="ipfs-0")
        # ipfs-2 has nothing local; must discover + fetch.
        assert not cluster.node("ipfs-2").blockstore.has(result.cid)
        assert cluster.cat(result.cid, node="ipfs-2") == data
        assert cluster.node("ipfs-2").blockstore.has(result.cid)

    def test_unannounced_content_unreachable_remotely(self):
        cluster = IpfsCluster(n_nodes=2, chunker=FixedSizeChunker(100))
        result = cluster.add(b"secret" * 50, node="ipfs-0", announce=False)
        with pytest.raises(BlockNotFoundError):
            cluster.cat(result.cid, node="ipfs-1")

    def test_a_provider_serving_rotted_bytes_is_skipped_and_counted_once(self):
        set_registry(MetricsRegistry())
        cluster = IpfsCluster(n_nodes=3, chunker=FixedSizeChunker(100))
        data = rng_for(9, "cluster").bytes(1000)
        root = cluster.add(data, node="ipfs-0").cid
        assert cluster.cat(root, node="ipfs-1") == data  # a clean second copy
        cluster.dht.provide("ipfs-1", root)
        rotted, clean = cluster.node("ipfs-0"), cluster.node("ipfs-1")
        leaf = leaf_cids(rotted.blockstore, root)[4]
        rotted.blockstore.corrupt(leaf, b"rotted bytes")
        # ipfs-0 is asked first for every block, and serves all but one.
        assert cluster.cat(root, node="ipfs-2") == data
        fetcher = cluster.node("ipfs-2")
        assert fetcher.bitswap.stats.corrupt_rejected == 1
        counters = get_registry().snapshot()["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("ipfs_corrupt")} \
            == {'ipfs_corrupt_blocks_total{peer="ipfs-0"}': 1}
        assert clean.bitswap.ledger_for("ipfs-2").blocks_sent == 1  # the next provider
        assert fetcher.blockstore.get(leaf) == data[400:500]  # never the rotted bytes

    def test_unknown_node_rejected(self):
        cluster = IpfsCluster(n_nodes=2)
        with pytest.raises(StorageError):
            cluster.node("nope")

    def test_single_node_cluster(self):
        cluster = IpfsCluster(n_nodes=1)
        result = cluster.add(b"alone")
        assert cluster.cat(result.cid) == b"alone"

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            IpfsCluster(n_nodes=0)

    def test_stat_counts(self):
        cluster = IpfsCluster(n_nodes=2, chunker=FixedSizeChunker(100))
        cluster.add(rng_for(5, "cluster").bytes(500))
        stat = cluster.stat()
        assert stat.n_nodes == 2
        assert stat.total_blocks > 0

    def test_dedup_across_cluster_adds(self):
        cluster = IpfsCluster(n_nodes=2, chunker=FixedSizeChunker(100))
        data = rng_for(6, "cluster").bytes(1000)
        r1 = cluster.add(data, node="ipfs-0")
        r2 = cluster.add(data, node="ipfs-0")
        assert r1.cid == r2.cid

    def test_many_files_many_readers(self):
        cluster = IpfsCluster(n_nodes=4, chunker=FixedSizeChunker(200))
        files = {}
        for i in range(8):
            data = rng_for(7, "cluster", str(i)).bytes(700)
            files[cluster.add(data, node=f"ipfs-{i % 4}").cid] = data
        for i, (cid, data) in enumerate(files.items()):
            reader = f"ipfs-{(i + 1) % 4}"
            assert cluster.cat(cid, node=reader) == data


class TestAddMany:
    """``add_many`` is N sequential ``add`` calls under one span."""

    @staticmethod
    def _cluster_with_announcements():
        cluster = IpfsCluster(n_nodes=3, chunker=FixedSizeChunker(100))
        announced, provide = [], cluster.dht.provide

        def spy(provider, cid):
            announced.append((provider, cid))
            return provide(provider, cid)

        cluster.dht.provide = spy
        return cluster, announced

    def test_equals_sequential_adds(self):
        # Overlapping payloads, so dedup makes insertion order observable.
        payloads = [rng_for(8, "many", str(i % 5)).bytes(150 * (i + 1)) for i in range(12)]
        one, one_announced = self._cluster_with_announcements()
        many, many_announced = self._cluster_with_announcements()
        expected = [one.add(p, node="ipfs-1") for p in payloads]
        assert many.add_many(payloads, node="ipfs-1") == expected
        assert list(many.node("ipfs-1").blockstore.cids()) \
            == list(one.node("ipfs-1").blockstore.cids())
        assert many_announced == one_announced
        assert many_announced == [("ipfs-1", r.cid) for r in expected]
        assert many.stat() == one.stat()

    def test_first_failure_propagates_and_stops_the_batch(self):
        cluster, announced = self._cluster_with_announcements()
        node = cluster.node("ipfs-0")
        payloads = [bytes([i]) * 300 for i in range(6)]
        add_bytes = node.add_bytes

        def failing(data):
            if data in (payloads[2], payloads[4]):
                raise StorageError(f"disk full at payload {data[0]}")
            return add_bytes(data)

        node.add_bytes = failing
        with pytest.raises(StorageError, match="payload 2"):
            cluster.add_many(payloads, node="ipfs-0")
        node.add_bytes = add_bytes
        reference = IpfsCluster(n_nodes=1, chunker=FixedSizeChunker(100))
        stored = [node.blockstore.has(reference.add(p).cid) for p in payloads]
        assert stored == [True, True, False, False, False, False]
        assert announced == []  # a failed batch announces nothing
