"""Tests for repro.index: the block-incremental authenticated secondary index.

Covers the tentpole acceptance criteria: incremental maintenance matches a
from-scratch rebuild, the query planner/executor route through the index
with answers byte-identical to chaincode scans, Merkle membership proofs
verify without chain replay (and reject tampering), the index survives
crash recovery through the durability paths, and the explorer audits the
epoch digests.
"""

import dataclasses
import json
import random
from types import SimpleNamespace

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.merkle import MerkleTree
from repro.errors import MerkleProofError, QueryError
from repro.fabric.tx import WriteEntry
from repro.fabric.worldstate import Version, WorldState
from repro.index import (
    BlockFilter,
    PeerIndex,
    verify_answer_records,
    verify_posting_proof,
)
from repro.query import QueryEngine, parse_query, plan_query
from repro.trust import SourceTier
from repro.util.serialization import canonical_json


def make_framework(**overrides):
    defaults = dict(consensus="solo", n_ipfs_nodes=2)
    defaults.update(overrides)
    return Framework(FrameworkConfig(**defaults))


META = {
    "timestamp": 100.0,
    "camera_id": "idx-cam",
    "detections": [{"vehicle_class": "car", "confidence": 0.9}],
}


def populate(framework, n=6, source="idx-cam"):
    client = Client(framework, framework.register_source(source, tier=SourceTier.TRUSTED))
    receipts = []
    for i in range(n):
        meta = dict(META)
        meta["timestamp"] = 100.0 + 700.0 * i  # spread across time buckets
        meta["detections"] = [
            {"vehicle_class": ("car" if i % 2 == 0 else "truck"), "confidence": 0.9}
        ]
        receipts.append(client.submit(f"payload-{i}".encode(), meta))
    return client, receipts


class TestIncrementalMaintenance:
    def test_every_peer_indexes_every_block(self):
        framework = make_framework(peers_per_org=2)
        populate(framework, n=4)
        height = framework.channel.height()
        roots = set()
        for peer in framework.channel.peers.values():
            assert peer.index is not None
            assert peer.index.height == height
            assert set(peer.index.epochs) == set(range(height))
            roots.add(peer.index.root())
        assert len(roots) == 1  # all peers agree on the epoch root

    def test_incremental_matches_from_world_rebuild(self):
        framework = make_framework()
        populate(framework, n=5)
        peer = next(iter(framework.channel.peers.values()))
        rebuilt = PeerIndex.from_world(peer.world, peer.ledger.height)
        assert rebuilt.root() == peer.index.root()
        assert rebuilt.epochs[peer.ledger.height - 1] == (
            peer.index.epochs[peer.ledger.height - 1]
        )

    def test_lookup_matches_world_scan(self):
        framework = make_framework()
        _, receipts = populate(framework, n=5)
        peer = next(iter(framework.channel.peers.values()))
        expected = sorted(r.entry_id for r in receipts)
        assert peer.index.lookup("source", "idx-cam") == expected
        assert peer.index.lookup("camera", "idx-cam") == expected
        trucks = peer.index.lookup("class", "truck")
        assert trucks == sorted(
            r.entry_id for i, r in enumerate(receipts) if i % 2 == 1
        )

    def test_time_range_lookup(self):
        framework = make_framework()
        _, receipts = populate(framework, n=5)
        peer = next(iter(framework.channel.peers.values()))
        # Timestamps are 100, 800, 1500, 2200, 2900.
        ids = peer.index.lookup_time_range(700.0, 1600.0)
        assert ids == sorted([receipts[1].entry_id, receipts[2].entry_id])
        assert peer.index.lookup_time_range(10_000.0, 20_000.0) == []

    def test_trust_band_lookup(self):
        framework = make_framework()
        _, receipts = populate(framework, n=2)
        framework.record_trust_on_chain("idx-cam")
        peer = next(iter(framework.channel.peers.values()))
        assert peer.index.band_of.get("idx-cam") == "trusted"
        assert peer.index.lookup("trust_band", "trusted") == sorted(
            r.entry_id for r in receipts
        )

    def test_block_filters_narrow_blocks(self):
        framework = make_framework()
        _, receipts = populate(framework, n=4)
        peer = next(iter(framework.channel.peers.values()))
        blocks = peer.index.blocks_possibly_containing("source", "idx-cam")
        assert blocks  # the uploads' blocks admit the token
        # A bloom filter can false-positive but never false-negative: every
        # block that really contains the value must be reported.
        data_blocks = {
            peer.world.get_version(f"data:{r.entry_id}").block for r in receipts
        }
        assert data_blocks <= set(blocks)

    def test_filter_roundtrip(self):
        filt = BlockFilter()
        filt.add("source=cam-1")
        restored = BlockFilter.from_doc(filt.to_doc())
        assert "source=cam-1" in restored
        assert "source=cam-2" not in restored


class TestProofs:
    def test_membership_proof_verifies_without_chain(self):
        framework = make_framework()
        _, receipts = populate(framework, n=3)
        peer = next(iter(framework.channel.peers.values()))
        trusted_root = peer.index.root()  # obtained out-of-band
        proof = peer.index.prove("source", "idx-cam")
        # Verification sees only the proof and the trusted root — no peer,
        # no ledger, no chain replay.
        assert verify_posting_proof(proof, trusted_root)
        records = [
            json.loads(peer.world.get(f"data:{r.entry_id}")) for r in receipts
        ]
        records.sort(key=lambda r: r["entry_id"])
        assert verify_answer_records(records, (proof,), trusted_root) == 3

    def test_tampered_record_rejected(self):
        framework = make_framework()
        _, receipts = populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        proof = peer.index.prove("source", "idx-cam")
        records = [
            json.loads(peer.world.get(f"data:{r.entry_id}")) for r in receipts
        ]
        records.sort(key=lambda r: r["entry_id"])
        records[0]["cid"] = "bafy-forged"
        with pytest.raises(MerkleProofError):
            verify_answer_records(records, (proof,), peer.index.root())

    def test_wrong_root_rejected(self):
        framework = make_framework()
        populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        proof = peer.index.prove("source", "idx-cam")
        with pytest.raises(MerkleProofError):
            verify_posting_proof(proof, "00" * 32)

    def test_tampered_entries_rejected(self):
        framework = make_framework()
        populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        proof = peer.index.prove("source", "idx-cam")
        forged = dataclasses.replace(
            proof, entries=tuple([(eid, "ff" * 32) for eid, _ in proof.entries])
        )
        with pytest.raises(MerkleProofError):
            verify_posting_proof(forged, peer.index.root())

    def test_unknown_posting_raises(self):
        framework = make_framework()
        populate(framework, n=1)
        peer = next(iter(framework.channel.peers.values()))
        with pytest.raises(MerkleProofError):
            peer.index.prove("camera", "no-such-camera")


class TestPlannerRouting:
    def test_equality_routes(self):
        for text, dim, value in (
            ("source_id = 'cam-1'", "source", "cam-1"),
            ("camera_id = 'cam-2'", "camera", "cam-2"),
            ("vehicle_class = 'truck'", "class", "truck"),
            ("violation_type = 'speeding'", "violation", "speeding"),
        ):
            plan = plan_query(parse_query(text))
            assert plan.index_route is not None, text
            assert plan.index_route.dim == dim
            assert plan.index_route.value == value

    def test_time_route(self):
        plan = plan_query(parse_query(
            "metadata.timestamp >= 100 AND metadata.timestamp < 900"
        ))
        assert plan.index_route is not None
        assert plan.index_route.dim == "time"
        lo, hi = plan.index_route.time_range
        assert lo == 100.0 and hi >= 900.0

    def test_unindexed_predicate_has_no_route(self):
        plan = plan_query(parse_query("color = 'red'"))
        assert plan.index_route is None
        assert plan.explain() == "FULL SCAN data:* -> filter"

    def test_explain_mentions_route(self):
        plan = plan_query(parse_query("source_id = 'cam-1'"))
        assert plan.explain() == "INDEX source=cam-1 -> filter"


class TestExecutorRouting:
    def test_index_and_scan_answers_byte_identical(self):
        framework = make_framework()
        client, _ = populate(framework, n=5)
        engine = client.engine
        engine.cache_enabled = False
        for text in (
            "source_id = 'idx-cam'",
            "vehicle_class = 'truck'",
            "metadata.timestamp >= 0 AND metadata.timestamp <= 2000 "
            "ORDER BY metadata.timestamp LIMIT 2",
        ):
            indexed = [r.record for r in engine.run(text)]
            assert canonical_json(indexed) == canonical_json(engine.scan(text)), text

    def test_index_route_counts_hits(self):
        framework = make_framework()
        client, _ = populate(framework, n=3)
        engine = client.engine
        engine.cache_enabled = False
        engine.run("source_id = 'idx-cam'")
        assert engine.stats.index_hits == 1
        engine.scan("source_id = 'idx-cam'")
        engine.run("color = 'red'")
        assert engine.stats.index_hits == 1  # neither scan route counts

    def test_fallback_when_no_peer_serves_index(self):
        framework = make_framework()
        client, receipts = populate(framework, n=3)
        engine = client.engine
        engine.cache_enabled = False
        for peer in framework.channel.peers.values():
            peer.index = None
        rows = engine.run("source_id = 'idx-cam'")
        assert len(rows) == len(receipts)
        assert engine.stats.index_misses == 1

    def test_failover_reads_the_other_peers_state_not_the_kept_decode(self):
        """Replicas are not assumed to agree: with the reference peer offline
        the engine returns what the *next* peer's world state holds."""
        framework = make_framework(peers_per_org=2)
        client, receipts = populate(framework, n=3)
        engine = client.engine
        engine.cache_enabled = False
        text = "source_id = 'idx-cam'"
        before = [r.record for r in engine.run(text)]
        peer0, peer1 = (framework.channel.peers[n] for n in ("peer0.org1", "peer1.org1"))
        assert framework.channel.indexing.reference_peer() is peer0
        key = "data:" + before[0]["entry_id"]
        only_on_peer1 = dict(before[0], cid="bafy-only-on-peer1")
        peer1.world.apply_write(
            key, canonical_json(only_on_peer1),
            Version(framework.channel.height(), 0), "tx-diverge", 0.0,
        )
        assert [r.record for r in engine.run(text)] == before  # still peer0
        peer0.online = False
        try:
            after = [r.record for r in engine.run(text)]
        finally:
            peer0.online = True
        assert after == [only_on_peer1, *before[1:]]
        assert [r.record for r in engine.run(text)] == before  # peer0 again

    def test_recovered_reference_peer_is_decoded_afresh(self):
        framework = make_framework(
            consensus="bft", peers_per_org=2, durability=True, checkpoint_interval=4
        )
        client, receipts = populate(framework, n=6)
        engine = client.engine
        engine.cache_enabled = False
        text = "vehicle_class = 'truck'"
        before = engine.run(text)
        reference = framework.channel.indexing.reference_peer()
        framework.durability.crash_and_recover(reference.name)
        assert framework.channel.indexing.reference_peer() is reference
        decoded = engine.stats.records_decoded
        after = engine.run(text)
        assert engine.stats.records_decoded - decoded == len(before) == 3
        assert [r.record for r in after] == [r.record for r in before]
        assert all(a.record is not b.record for a, b in zip(after, before))

    def test_run_verified_end_to_end(self):
        framework = make_framework()
        client, receipts = populate(framework, n=4)
        answer = client.engine.run_verified("source_id = 'idx-cam'")
        assert {r["entry_id"] for r in answer.records} == {
            r.entry_id for r in receipts
        }
        assert answer.verify() == len(receipts)
        # The proofs also verify against an out-of-band trusted root.
        peer = next(iter(framework.channel.peers.values()))
        assert answer.verify(peer.index.epochs[peer.ledger.height - 1]) == (
            len(receipts)
        )

    def test_run_verified_rejects_unroutable_query(self):
        framework = make_framework()
        client, _ = populate(framework, n=1)
        with pytest.raises(QueryError):
            client.engine.run_verified("color = 'red'")

    def test_run_verified_unknown_value_is_empty(self):
        framework = make_framework()
        client, _ = populate(framework, n=1)
        answer = client.engine.run_verified("source_id = 'ghost'")
        assert answer.records == ()
        assert answer.proofs == ()
        assert answer.verify() == 0


class TestOneSecondaryIndex:
    """The peers' ``PeerIndex`` is the only secondary index: a store
    transaction writes its ``data:`` record and its provenance trail, and
    no composite index key."""

    INDEXED_META = dict(
        META,
        detections=[{"vehicle_class": "car"}, {"vehicle_class": "truck"}],
        violations=[{"violation_type": "speeding"}],
    )

    def test_store_writes_only_the_record_and_its_provenance(self):
        from repro.core import BatchIngestor
        from repro.fabric.worldstate import make_composite_key
        from repro.workloads import IngestItem

        framework = make_framework()
        client = Client(framework, framework.register_source("one-cam", tier=SourceTier.TRUSTED))
        entry_ids = [client.submit(b"submitted", dict(self.INDEXED_META)).entry_id]
        ingestor = BatchIngestor(framework)
        ingestor.register(client.identity)
        items = [
            IngestItem("one-cam", f"batched-{i}".encode(), dict(self.INDEXED_META), None)
            for i in range(2)
        ]
        entry_ids += ingestor.ingest(items).entry_ids
        assert len(entry_ids) == 3

        peer = next(iter(framework.channel.peers.values()))
        assert not [key for key in peer.world.keys() if "data~" in key]
        txs = {
            tx.tx_id: tx for block in peer.ledger.blocks() for tx in block.transactions
        }
        for entry_id in entry_ids:
            assert {w.key for w in txs[entry_id].rwset.writes} == {
                "data:" + entry_id,
                make_composite_key("prov", [entry_id, "00000000"]),
                make_composite_key("prov", [entry_id, "00000001"]),
                "provhead:" + entry_id,
            }
        # The one index still serves every dimension the metadata carries.
        for text in (
            "camera_id = 'idx-cam'", "vehicle_class = 'truck'",
            "violation_type = 'speeding'", "source_id = 'one-cam'",
        ):
            plan = plan_query(parse_query(text))
            assert peer.index.lookup(plan.index_route.dim, plan.index_route.value) == (
                sorted(entry_ids)
            ), text


# -- the maintained epoch tree --------------------------------------------------


def _block(number, writes):
    """The slice of a committed block ``apply_block`` reads: one tx per write."""
    return SimpleNamespace(
        number=number,
        validation_codes=(),
        transactions=[
            SimpleNamespace(rwset=SimpleNamespace(writes=(w,))) for w in writes
        ],
    )


def _record_write(entry_id, source, camera, ts, vehicle_class="car"):
    record = {
        "entry_id": entry_id,
        "cid": f"bafy-{entry_id}",
        "metadata": {
            "camera_id": camera,
            "timestamp": ts,
            "detections": [{"vehicle_class": vehicle_class}],
        },
        "source_id": source,
    }
    return WriteEntry(f"data:{entry_id}", canonical_json(record))


def _trust_write(source, score):
    return WriteEntry(
        f"trust:{source}", canonical_json({"score": score, "source_id": source})
    )


def _delete_write(entry_id):
    return WriteEntry(f"data:{entry_id}", None, is_delete=True)


class _Chain:
    """A PeerIndex fed synthetic blocks alongside the world state they
    commit, checking the maintained tree against the reference per block."""

    def __init__(self):
        self.index = PeerIndex()
        self.world = WorldState()

    def commit(self, *writes):
        index, number = self.index, self.index.height
        previous_root = index.root()
        for tx, write in enumerate(writes):
            self.world.apply_write(
                write.key, write.value, Version(number, tx), f"tx-{number}-{tx}", 0.0
            )
        epoch = index.apply_block(_block(number, writes))
        root = index.root()
        assert epoch == root == index.epochs[number] != previous_root
        assert root == MerkleTree(index.leaves()).root.hex()
        targets = list(index.postings) + [("trust_band", b) for b in index.bands]
        for dim, value in targets:
            proof = index.prove(dim, value)
            assert proof.root == root and proof.height == number + 1
            assert verify_posting_proof(proof, root)
            stale = dataclasses.replace(proof, root=previous_root)
            with pytest.raises(MerkleProofError):
                verify_posting_proof(stale, previous_root)
        assert PeerIndex.from_lines(index.to_lines()).root() == root
        if not index.tombstones:  # from_world cannot see deleted records
            assert PeerIndex.from_world(self.world, index.height).root() == root
        return root


class TestMaintainedTree:
    def test_empty_index_has_the_reference_root(self):
        index = PeerIndex()
        assert index.root() == MerkleTree(index.leaves()).root.hex()

    def test_scripted_structural_changes(self):
        chain = _Chain()
        index = chain.index
        chain.commit(_record_write("e0", "src-m", "cam-m", 6000.0))
        # New keys landing before, between and after the existing ones.
        chain.commit(_record_write("e1", "src-a", "cam-a", 600.0, "bus"))
        chain.commit(_record_write("e2", "src-z", "cam-z", 60000.0, "van"))
        chain.commit(_record_write("e3", "src-k", "cam-k", 3000.0, "car"))
        # Appends to existing postings only: no new leaf.
        n_leaves = len(index.leaves())
        chain.commit(_record_write("e4", "src-m", "cam-m", 6001.0))
        assert len(index.leaves()) == n_leaves
        # First band leaf, then a second band.
        chain.commit(_trust_write("src-m", 0.9))
        chain.commit(_trust_write("src-a", 0.5))
        assert sorted(index.bands) == ["provisional", "trusted"]
        # A source moving between bands; its old band empties and disappears.
        chain.commit(_trust_write("src-a", 0.95))
        assert sorted(index.bands) == ["trusted"]
        chain.commit(_trust_write("src-m", 0.1), _trust_write("src-a", 0.1))
        assert sorted(index.bands) == ["untrusted"]
        # Several records in one block, sharing a new posting.
        chain.commit(
            _record_write("e5", "src-b", "cam-m", 6002.0),
            _record_write("e6", "src-b", "cam-b", 1200.0),
        )
        # A block that changes nothing but the height.
        chain.commit()
        # First tombstone adds the last leaf; the second only updates it.
        n_leaves = len(index.leaves())
        chain.commit(_delete_write("e1"))
        assert len(index.leaves()) == n_leaves + 1
        chain.commit(_delete_write("e2"), _delete_write("never-indexed"))
        assert len(index.leaves()) == n_leaves + 1
        assert index.lookup("source", "src-a") == []

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences_match_the_reference(self, seed):
        rng = random.Random(seed)
        chain = _Chain()
        entries: list[str] = []
        for number in range(40):
            writes = []
            for _ in range(rng.randint(0, 3)):
                roll = rng.random()
                if roll < 0.6 or not entries:
                    entry_id = f"e{number:03d}-{len(writes)}"
                    writes.append(
                        _record_write(
                            entry_id,
                            f"src-{rng.randrange(6)}",
                            f"cam-{rng.randrange(40):02d}",
                            float(rng.randrange(0, 40_000)),
                            rng.choice(["car", "bus", "truck"]),
                        )
                    )
                    entries.append(entry_id)
                elif roll < 0.9:
                    writes.append(
                        _trust_write(f"src-{rng.randrange(3)}", rng.random())
                    )
                elif number > 25:  # keep from_world comparable for a while
                    writes.append(_delete_write(rng.choice(entries)))
            chain.commit(*writes)
        assert chain.index.height == 40

    def test_range_lookups_match_a_scan_of_the_keys(self):
        chain = _Chain()
        stamps = [-700.0, -1.0, 0.0, 599.0, 600.0, 4200.0, 90_000.0, 7e14]
        for i, ts in enumerate(stamps):
            chain.commit(_record_write(f"e{i}", "src", "cam", ts))
        index = chain.index
        bounds = [-1e4, -600.0, -0.5, 0.0, 600.0, 4199.0, 4800.0, 1e5, 8e14]
        for lower in bounds:
            for upper in bounds:
                lo_b, hi_b = int(lower // 600), int(upper // 600)
                expected = sorted(
                    v
                    for dim, v in index.postings
                    if dim == "time" and lower <= upper and lo_b <= int(v) <= hi_b
                )
                assert index.time_buckets(lower, upper) == expected
                assert index.lookup_time_range(lower, upper) == sorted(
                    eid
                    for v in expected
                    for eid, _ in index.postings[("time", v)].entries
                )

    def test_apply_cost_does_not_grow_with_the_number_of_postings(self):
        """Height-creep gate on exact call counts: the same block shape
        (one record appending to five existing postings) re-serialises the
        same leaves and hashes only their root paths at ~50 and ~500
        postings."""
        from repro.obs.prof import profiling

        touched = 5  # height leaf + source, camera, time, class postings
        for cameras, n_leaves in ((22, 50), (240, 486)):
            index = PeerIndex()
            for i in range(cameras):
                cam = f"cam-{i:03d}"
                index.apply_block(
                    _block(i, [_record_write(f"e{i}", cam, cam, 600.0 * (i % 4))])
                )
            assert len(index.leaves()) == n_leaves
            probe = _record_write("probe", "cam-007", "cam-007", 0.0)
            with profiling() as profiler:
                index.apply_block(_block(index.height, [probe]))
            assert index.root() == MerkleTree(index.leaves()).root.hex()
            calls = {s.center: s.calls for s in profiler.center_stats()}
            assert calls["serialize.canonical_json"] == touched
            assert calls["crypto.merkle"] == touched
            # One leaf hash plus at most one node hash per level, per leaf.
            depth = (n_leaves - 1).bit_length()
            assert calls["crypto.hash"] <= touched * (depth + 1)


class TestDurability:
    def test_wal_replay_restores_index(self):
        framework = make_framework(
            consensus="bft", peers_per_org=2, durability=True, checkpoint_interval=4
        )
        populate(framework, n=6)
        peer = framework.channel.peers["peer1.org1"]
        root_before = peer.index.root()
        epochs_before = dict(peer.index.epochs)
        outcome = framework.durability.crash_and_recover("peer1.org1")
        assert outcome.kind == "wal_replay", outcome.detail()
        assert peer.index.root() == root_before
        assert dict(peer.index.epochs) == epochs_before
        assert peer.index.height == peer.ledger.height

    def test_state_transfer_rebuilds_index(self):
        from repro.storage import CORRUPT

        framework = make_framework(
            consensus="bft", peers_per_org=2, durability=True, checkpoint_interval=4
        )
        populate(framework, n=6)
        peer = framework.channel.peers["peer1.org1"]
        root_before = peer.index.root()
        framework.durability.damage_wal("peer1.org1", CORRUPT)
        outcome = framework.durability.crash_and_recover("peer1.org1")
        assert outcome.kind == "state_transfer", outcome.detail()
        assert peer.index.root() == root_before
        assert peer.index.height == peer.ledger.height

    def test_index_lines_roundtrip(self):
        framework = make_framework()
        populate(framework, n=4)
        framework.record_trust_on_chain("idx-cam")
        peer = next(iter(framework.channel.peers.values()))
        restored = PeerIndex.from_lines(peer.index.to_lines())
        assert restored.root() == peer.index.root()
        assert restored.height == peer.index.height
        assert restored.epochs == peer.index.epochs
        assert restored.lookup("source", "idx-cam") == (
            peer.index.lookup("source", "idx-cam")
        )


def _filter_docs(index):
    return {n: f.to_doc() for n, f in index.block_filters.items()}


class TestCheckpointLines:
    """``to_lines`` / ``from_lines``: the index's checkpoint form, whose
    posting and block lines are cached between checkpoints."""

    def _populated(self):
        chain = _Chain()
        chain.commit(_record_write("e0", "src-a", "cam-a", 600.0))
        chain.commit(_record_write("e1", "src-b", "cam-b", 1200.0, "bus"))
        chain.commit(_trust_write("src-a", 0.9), _trust_write("src-b", 0.1))
        chain.commit()  # a block with an empty filter
        chain.commit(_delete_write("e1"))
        return chain

    def test_roundtrip_reproduces_every_persisted_part(self):
        index = self._populated().index
        lines = index.to_lines()
        assert all(b"\n" not in line for line in lines)
        restored = PeerIndex.from_lines(b"\n".join(lines).split(b"\n"))
        assert restored.root() == index.root()
        assert restored.height == index.height == 5
        assert restored.epochs == index.epochs
        assert _filter_docs(restored) == _filter_docs(index)
        assert sorted(restored.block_filters) == [0, 1, 2, 3, 4]
        assert restored.bands == index.bands and restored.band_of == index.band_of
        assert restored.tombstones == index.tombstones == {"e1"}
        assert restored.to_lines() == lines

    def test_original_and_restored_stay_equal_under_further_blocks(self):
        index = self._populated().index
        restored = PeerIndex.from_lines(index.to_lines())
        further = [
            [_record_write("e2", "src-a", "cam-a", 601.0)],  # appends to cached postings
            [_record_write("e3", "src-c", "cam-c", 9000.0, "van")],  # new postings
            [_trust_write("src-b", 0.8), _delete_write("e0")],
        ]
        for writes in further:
            for target in (index, restored):
                target.apply_block(_block(target.height, writes))
            assert restored.root() == index.root()
            assert restored.to_lines() == index.to_lines()
        assert restored.epochs == index.epochs

    def test_an_append_after_to_lines_shows_in_the_next_one(self):
        index = self._populated().index
        before = index.to_lines()
        assert index.to_lines() == before  # nothing changed: the same lines
        index.apply_block(
            _block(index.height, [_record_write("e9", "src-a", "cam-z", 600.0)])
        )
        after = index.to_lines()
        changed = {
            dim_value
            for dim_value, p in index.postings.items()
            if not set(p.lines()) <= set(before)
        }
        assert changed == {
            ("source", "src-a"), ("camera", "cam-z"),
            ("time", "000000000001"), ("class", "car"),
        }
        assert b'"e9"' in index.postings[("source", "src-a")].lines()[-1]
        assert len(after) == len(before) + 3  # a new posting (2 lines), a new block
        fresh = PeerIndex.from_lines(after)
        assert fresh.lookup("source", "src-a") == index.lookup("source", "src-a")
        assert "e9" in fresh.lookup("camera", "cam-z")

    def test_a_long_posting_is_written_in_immutable_runs(self):
        from repro.index.secondary import _RUN

        index = PeerIndex()
        kept: list[bytes] = []
        for i in range(2 * _RUN + 3):
            index.apply_block(
                _block(i, [_record_write(f"e{i:04d}", "hot-src", f"cam-{i}", 0.0)])
            )
            if i % 7 and i + 1 not in (_RUN, 2 * _RUN):
                continue  # checkpoint at irregular points and on both boundaries
            head, *runs = index.postings[("source", "hot-src")].lines()
            assert json.loads(head)[3] == i + 1
            assert [len(json.loads(run)) for run in runs] == (
                [_RUN] * ((i + 1) // _RUN) + [(i + 1) % _RUN] * bool((i + 1) % _RUN)
            )
            full = runs[: (i + 1) // _RUN]
            assert all(a is b for a, b in zip(kept, full))  # joined, not redone
            kept = full
            restored = PeerIndex.from_lines(index.to_lines())
            assert restored.root() == index.root()
            assert restored.postings[("source", "hot-src")].entries == (
                index.postings[("source", "hot-src")].entries
            )
        assert len(kept) == 2

    def test_lines_fill_only_when_a_checkpoint_asks(self):
        index = self._populated().index.fresh()
        index.apply_block(_block(0, [_record_write("e0", "src-a", "cam-a", 600.0)]))
        index.lookup("source", "src-a"), index.prove("source", "src-a"), index.root()
        assert index._block_lines == {}
        assert all(p._ends == () and p._runs == [] for p in index.postings.values())

    @pytest.mark.parametrize("damage", ["drop_posting", "drop_block", "garble"])
    def test_damaged_lines_raise_what_the_restore_path_catches(self, damage):
        from repro.errors import EncodingError

        lines = self._populated().index.to_lines()
        if damage == "drop_posting":
            del lines[1]
        elif damage == "drop_block":
            del lines[-1]
        else:
            lines[2] = lines[2][: len(lines[2]) // 2]
        with pytest.raises((EncodingError, LookupError, TypeError, ValueError)):
            PeerIndex.from_lines(lines)


class TestExplorerIntegration:
    def test_block_views_carry_epochs(self):
        from repro.obs.explorer import LedgerExplorer

        framework = make_framework()
        populate(framework, n=3)
        explorer = LedgerExplorer(framework.channel)
        views = explorer.blocks()
        peer = next(iter(framework.channel.peers.values()))
        for view in views:
            assert view["index_epoch"] == peer.index.epochs[view["number"]]

    def test_audit_checks_epochs(self):
        from repro.obs.explorer import LedgerExplorer

        framework = make_framework()
        populate(framework, n=3)
        report = LedgerExplorer(framework.channel).audit_chain(offchain=False)
        assert report.ok
        assert report.index_epochs_checked == framework.channel.height()

    def test_audit_flags_forged_epoch(self):
        from repro.obs.explorer import LedgerExplorer

        framework = make_framework()
        populate(framework, n=3)
        peer = next(iter(framework.channel.peers.values()))
        last = peer.ledger.height - 1
        peer.index.epochs[last] = "ab" * 32
        report = LedgerExplorer(framework.channel).audit_chain(offchain=False)
        assert not report.ok
        assert any(f.check == "index_epoch" for f in report.findings)


class TestSanitizerMode:
    def test_clean_run_has_no_findings(self):
        framework = make_framework(sanitize="index")
        try:
            client, _ = populate(framework, n=3)
            client.engine.cache_enabled = False
            client.engine.run("source_id = 'idx-cam'")
            report = framework.sanitizer.finalize()
        finally:
            import repro.analysis.runtime as runtime

            runtime._ACTIVE = None
        assert report.ok, report.render()
        assert report.checks["index"] > 0

    def test_state_scan_route_is_parity_checked(self):
        framework = make_framework(sanitize="index")
        try:
            client, _ = populate(framework, n=3)
            checks = framework.sanitizer.report().checks["index"]
            rows = client.engine.run("metadata.timestamp >= 800 LIMIT 1")  # no route
            report = framework.sanitizer.finalize()
        finally:
            import repro.analysis.runtime as runtime

            runtime._ACTIVE = None
        assert len(rows) == 1 and client.engine.stats.index_hits == 0
        assert report.checks["index"] == checks + 1
        assert report.ok, report.render()

    def test_a_caller_changing_a_shared_record_is_flagged(self):
        """``QueryRow.record`` is read-only; SAN309's fresh chaincode decode
        is what notices a caller who wrote to one."""
        framework = make_framework(sanitize="index")
        try:
            client, _ = populate(framework, n=3)
            rows = client.engine.run("source_id = 'idx-cam'")
            assert framework.sanitizer.report().ok
            rows[0].record["cid"] = "bafy-scribbled"
            again = client.engine.run("metadata.camera_id = 'idx-cam'")
            assert again[0].record is rows[0].record
            report = framework.sanitizer.finalize()
        finally:
            import repro.analysis.runtime as runtime

            runtime._ACTIVE = None
        assert [f.rule_id for f in report.findings] == ["SAN309"]

    def test_divergent_index_is_flagged(self):
        framework = make_framework(sanitize="index")
        try:
            client, _ = populate(framework, n=2)
            peer = next(iter(framework.channel.peers.values()))
            # Corrupt one posting chain, then commit another block: SAN308's
            # from-scratch rebuild can no longer reproduce the live root.
            posting = peer.index.postings[("source", "idx-cam")]
            posting.chain = "00" * 32
            client.submit(b"one-more", dict(META))
            report = framework.sanitizer.finalize()
        finally:
            import repro.analysis.runtime as runtime

            runtime._ACTIVE = None
        assert any(f.rule_id == "SAN308" for f in report.findings)

    def test_corruption_no_later_block_touches_is_flagged(self):
        framework = make_framework(sanitize="index")
        try:
            client, _ = populate(framework, n=2)
            peer = next(iter(framework.channel.peers.values()))
            # The next submit (a car at t=100) appends to neither this
            # posting nor its leaf, so the maintained tree keeps serving the
            # cached leaf hash: only re-hashing the live postings shows it.
            peer.index.postings[("class", "truck")].chain = "00" * 32
            client.submit(b"one-more", dict(META))
            report = framework.sanitizer.finalize()
        finally:
            import repro.analysis.runtime as runtime

            runtime._ACTIVE = None
        findings = [f for f in report.findings if f.rule_id == "SAN308"]
        assert findings
        assert all("re-hashed from live postings" in f.message for f in findings)
        assert not any("maintained" in f.message for f in findings)
