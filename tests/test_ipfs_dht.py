"""Tests for the Kademlia-style DHT."""

import pytest

from repro.crypto.cid import CID
from repro.ipfs.dht import (
    DhtRegistry,
    RoutingTable,
    bucket_index,
    key_for_cid,
    key_for_peer,
    xor_distance,
)


def build_swarm(n, replication=20):
    reg = DhtRegistry(replication=replication)
    bootstrap = None
    for i in range(n):
        reg.join(f"peer-{i}", bootstrap=bootstrap)
        if bootstrap is None:
            bootstrap = "peer-0"
    return reg


class TestKeySpace:
    def test_peer_keys_stable(self):
        assert key_for_peer("a") == key_for_peer("a")

    def test_peer_and_cid_keys_domain_separated(self):
        # Even equal strings hash differently as peer vs cid inputs.
        cid = CID.for_data(b"x")
        assert key_for_peer(cid.encode()) != key_for_cid(cid)

    def test_xor_distance_symmetric(self):
        a, b = key_for_peer("a"), key_for_peer("b")
        assert xor_distance(a, b) == xor_distance(b, a)
        assert xor_distance(a, a) == 0

    def test_bucket_index_range(self):
        a, b = key_for_peer("a"), key_for_peer("b")
        assert 0 <= bucket_index(a, b) <= 255

    def test_bucket_index_self_rejected(self):
        a = key_for_peer("a")
        with pytest.raises(ValueError):
            bucket_index(a, a)


class TestRoutingTable:
    def test_add_and_closest(self):
        table = RoutingTable(own_key=key_for_peer("me"))
        for i in range(50):
            table.add(f"peer-{i}")
        target = key_for_peer("target")
        closest = table.closest(target, 5)
        assert len(closest) == 5
        # Result must actually be the closest among known peers.
        all_sorted = sorted(
            table.peers(), key=lambda p: xor_distance(key_for_peer(p), target)
        )
        assert closest == all_sorted[:5]

    def test_ignores_self(self):
        table = RoutingTable(own_key=key_for_peer("me"))
        table.add("me")
        assert len(table) == 0

    def test_bucket_capacity_evicts_lru(self):
        table = RoutingTable(own_key=key_for_peer("me"), bucket_size=2)
        # Force many peers; no bucket may exceed its size.
        for i in range(200):
            table.add(f"peer-{i}")
        assert all(len(b) <= 2 for b in table._buckets.values())

    def test_re_adding_moves_to_tail(self):
        table = RoutingTable(own_key=key_for_peer("me"), bucket_size=3)
        table.add("a")
        table.add("a")  # no duplicate
        assert table.peers().count("a") == 1


class TestDhtRegistry:
    def test_join_duplicate_rejected(self):
        reg = build_swarm(2)
        with pytest.raises(ValueError):
            reg.join("peer-0")

    def test_provide_and_find(self):
        reg = build_swarm(10)
        cid = CID.for_data(b"content")
        reg.provide("peer-3", cid)
        assert "peer-3" in reg.find_providers("peer-7", cid)

    def test_find_without_providers_empty(self):
        reg = build_swarm(5)
        assert reg.find_providers("peer-1", CID.for_data(b"unknown")) == set()

    def test_multiple_providers_all_found(self):
        reg = build_swarm(12)
        cid = CID.for_data(b"popular")
        for p in ("peer-2", "peer-5", "peer-9"):
            reg.provide(p, cid)
        found = reg.find_providers("peer-0", cid)
        assert {"peer-2", "peer-5", "peer-9"} <= found

    def test_replication_count(self):
        reg = build_swarm(30, replication=5)
        replicas = reg.provide("peer-0", CID.for_data(b"replicated"))
        assert replicas == 5

    def test_single_node_swarm(self):
        reg = build_swarm(1)
        cid = CID.for_data(b"solo")
        reg.provide("peer-0", cid)
        assert reg.find_providers("peer-0", cid) == {"peer-0"}

    def test_lookup_cost_scales_sublinearly(self):
        """Routing should not query every peer in a large swarm."""
        reg = build_swarm(100, replication=8)
        cid = CID.for_data(b"needle")
        reg.provide("peer-50", cid)
        before = reg.lookup_hops
        reg.find_providers("peer-99", cid)
        assert reg.lookup_hops - before < 60  # far fewer than n=100 queried
