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
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.merkle import MerkleTree
from repro.errors import MerkleProofError, QueryError
from repro.fabric.tx import WriteEntry
from repro.fabric.worldstate import Version, WorldState
from repro.index import PeerIndex, verify_answer_records, verify_posting_proof
from repro.index.secondary import Posting, _height_leaf, _posting_leaf
from repro.query import QueryEngine, parse_query, plan_query
from repro.trust import SourceTier
from repro.util.serialization import canonical_json

from tests import serialization_oracle as oracle


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
        # The score write is a rider: queued, indexed once a round carries it.
        assert "idx-cam" not in peer.index.band_of
        framework.channel.flush()
        assert peer.index.band_of.get("idx-cam") == "trusted"
        assert peer.index.lookup("trust_band", "trusted") == sorted(
            r.entry_id for r in receipts
        )


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
        engine.run("source_id = 'idx-cam'")
        assert engine.stats.index_hits == 1
        engine.scan("source_id = 'idx-cam'")
        engine.run("color = 'red'")
        assert engine.stats.index_hits == 1  # neither scan route counts

    def test_fallback_when_no_peer_serves_index(self):
        framework = make_framework()
        client, receipts = populate(framework, n=3)
        engine = client.engine
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

    def test_store_writes_only_the_record(self):
        from repro.core import BatchIngestor
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
            assert {w.key for w in txs[entry_id].rwset.writes} == {"data:" + entry_id}
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
                for lower_closed in (True, False):
                    for upper_closed in (True, False):
                        assert index.lookup_time_range(
                            lower, upper, lower_closed, upper_closed
                        ) == sorted(
                            f"e{i}"
                            for i, ts in enumerate(stamps)
                            if (lower <= ts if lower_closed else lower < ts)
                            and (ts <= upper if upper_closed else ts < upper)
                        )

    def test_one_block_splices_several_keys_and_empties_a_band(self):
        """One ``MerkleTree.edit`` batch holding inserts either side of
        updates and a band leaf's delete; ``commit`` checks the root against
        ``MerkleTree(index.leaves())`` and every proof."""
        chain = _Chain()
        index = chain.index
        chain.commit(_record_write("e0", "src-m", "cam-m", 6000.0), _trust_write("src-m", 0.9))
        chain.commit(_trust_write("src-a", 0.5))
        assert sorted(index.bands) == ["provisional", "trusted"]
        n_leaves = len(index.leaves())
        chain.commit(
            _record_write("e1", "src-a", "cam-a", 600.0, "bus"),
            _record_write("e2", "src-z", "cam-z", 60000.0, "van"),
            _record_write("e3", "src-m", "cam-m", 6001.0),
            _trust_write("src-a", 0.95),
        )
        assert sorted(index.bands) == ["trusted"]
        # Source, camera, time and class keys for e1 and e2; one band gone.
        assert len(index.leaves()) == n_leaves + 8 - 1

    def test_apply_cost_does_not_grow_with_the_number_of_postings(self, monkeypatch):
        """Height-creep gate on exact call counts: the same block shape
        (one record appending to five existing postings) re-serialises the
        same leaves in one ``crypto.merkle`` pass at ~50 and ~500 postings,
        which hashes each ancestor of a changed leaf at most once."""
        from repro.crypto import merkle
        from repro.obs.prof import profiling

        node_hashes = []

        def counting_sha256(data):
            if data[:1] == b"\x01":
                node_hashes.append(data)
            return real_sha256(data)

        real_sha256 = merkle.sha256
        monkeypatch.setattr(merkle, "sha256", counting_sha256)
        touched = 5  # height leaf + source, camera, time, class postings
        for cameras, n_leaves in ((22, 50), (240, 486)):
            index = PeerIndex()
            for i in range(cameras):
                cam = f"cam-{i:03d}"
                index.apply_block(
                    _block(i, [_record_write(f"e{i}", cam, cam, 600.0 * (i % 4))])
                )
            before = index.leaves()
            assert len(before) == n_leaves
            probe = _record_write("probe", "cam-007", "cam-007", 0.0)
            node_hashes.clear()
            with profiling() as profiler:
                index.apply_block(_block(index.height, [probe]))
            hashed = len(node_hashes)
            after = index.leaves()
            changed = [i for i, (old, new) in enumerate(zip(before, after)) if old != new]
            assert len(after) == n_leaves and len(changed) == touched
            assert index.root() == MerkleTree(after).root.hex()
            calls = {s.center: s.calls for s in profiler.center_stats()}
            assert calls["serialize.index_leaf"] == touched
            assert "serialize.canonical_json" not in calls
            assert calls["crypto.merkle"] == 1
            assert "crypto.hash" not in calls  # node hashes are the pass's own
            # Shared ancestors are hashed once, not once per changed leaf.
            depth = (n_leaves - 1).bit_length()
            ancestors = {(k, p >> k) for p in changed for k in range(1, depth + 1)}
            assert 0 < hashed <= len(ancestors) < touched * depth


_LEAF_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\n\t\x7fé日\u2028') | st.characters(exclude_categories=("Cs",)),
    max_size=12,
)


class TestLeafBytes:
    """Posting and height leaves are rendered unchecked; the oracle is the
    former renderer (``tests/serialization_oracle.py``) of the dict each
    stands for."""

    @given(_LEAF_TEXT, _LEAF_TEXT, st.integers(0, 2**63), st.lists(_LEAF_TEXT, max_size=3))
    def test_leaves_are_the_canonical_json_of_their_dicts(self, dim, value, height, ids):
        posting = Posting(dim, value)
        for entry_id in ids:
            posting.append(entry_id, "ab" * 32)
        expected = {"chain": posting.chain, "dim": dim, "n": len(ids), "value": value}
        assert posting.leaf_bytes() == oracle.expected(expected)
        assert _posting_leaf(posting.chain, dim, len(ids), value) == oracle.expected(expected)
        assert _height_leaf(height) == oracle.expected({"dim": "_meta", "height": height})


def _committed_ids(index, *keys):
    """``sorted(set(ids) - tombstones)`` over the postings under ``keys``."""
    ids = {
        eid
        for key in keys
        if key in index.postings
        for eid, _ in index.postings[key].entries
    }
    return sorted(ids - index.tombstones)


class TestPostingOrder:
    """Lookups hand out entry-id order kept at append time, not sorted per
    call, and never a list the index still holds."""

    def _random_chain(self, seed, deletes):
        rng = random.Random(seed)
        chain = _Chain()
        for number in range(30):
            writes = []
            for k in range(rng.randint(1, 4)):
                # Ids arrive out of order, so every posting needs its insort.
                entry_id = f"e{rng.randrange(10**6):06d}-{number}-{k}"
                writes.append(_record_write(
                    entry_id, f"src-{rng.randrange(4)}", f"cam-{rng.randrange(5)}",
                    float(rng.randrange(-3000, 9000)), rng.choice(["car", "bus"]),
                ))
            if rng.random() < 0.3:
                writes.append(_trust_write(f"src-{rng.randrange(4)}", rng.random()))
            chain.commit(*writes)
        if deletes:
            entries = sorted(chain.index._indexed)
            chain.commit(*(_delete_write(eid) for eid in rng.sample(entries, 5)))
        return chain

    def _assert_order(self, index, world):
        for (dim, value), posting in index.postings.items():
            assert posting.ids == sorted(eid for eid, _ in posting.entries)
            assert index.lookup(dim, value) == _committed_ids(index, (dim, value))
        for band, sources in index.bands.items():
            keys = [("source", source) for source in sources]
            assert index.lookup("trust_band", band) == _committed_ids(index, *keys)
        stamps = {
            key[len("data:"):]: json.loads(raw)["metadata"]["timestamp"]
            for key, raw in world.range("data:", "data:\x7f")
        }
        for lower, upper in ((-3000, 9000), (-601, -1), (0, 600), (1200.5, 4800)):
            assert index.lookup_time_range(lower, upper) == sorted(
                eid for eid, ts in stamps.items() if lower <= ts < upper
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_lookups_are_in_entry_id_order(self, seed):
        chain = self._random_chain(seed, deletes=False)
        self._assert_order(chain.index, chain.world)
        assert chain.index.bands
        rebuilt = PeerIndex.from_world(chain.world, chain.index.height)
        for key, posting in chain.index.postings.items():
            twin = rebuilt.postings[key]
            assert (twin.ids, twin.times, twin.by_time) == (
                posting.ids, posting.times, posting.by_time
            )
        self._assert_order(rebuilt, chain.world)

    @pytest.mark.parametrize("seed", range(3))
    def test_tombstoned_ids_are_left_out(self, seed):
        chain = self._random_chain(seed, deletes=True)
        assert len(chain.index.tombstones) == 5
        self._assert_order(chain.index, chain.world)

    @pytest.mark.parametrize("deletes", [False, True])
    def test_a_returned_list_is_the_callers_own(self, deletes):
        index = self._random_chain(0, deletes=deletes).index
        band = sorted(index.bands)[0]
        root = index.root()
        for lookup in (
            lambda: index.lookup("camera", "cam-1"),
            lambda: index.lookup("trust_band", band),
            lambda: index.lookup_time_range(0, 600),
            lambda: index.lookup_time_range(-3000, 9000),
        ):
            before = list(lookup())
            assert before
            returned = lookup()
            returned.reverse()
            returned.append("e-forged")
            assert lookup() == before
        assert index.root() == root == MerkleTree(index.leaves()).root.hex()


def _durable_framework():
    framework = make_framework(
        consensus="bft", peers_per_org=2, durability=True, checkpoint_interval=4
    )
    populate(framework, n=8)  # height 10: checkpoints at 4 and 8, two WAL blocks
    return framework


def _assert_matches_survivors(framework, peer):
    """The recovered peer's height and root equal every survivor's, and it
    holds the survivors' epochs from the adopted snapshot's height - 1 on,
    as its ledger holds their blocks from that height on."""
    first = peer.ledger.base_height - 1
    assert first >= 0  # recovery adopted a snapshot
    for other in framework.channel.peers.values():
        if other is peer:
            continue
        assert (peer.ledger.height, peer.index.root()) == (
            other.ledger.height, other.index.root()
        ), other.name
        assert dict(peer.index.epochs) == {
            n: epoch for n, epoch in other.index.epochs.items() if n >= first
        }, other.name
    assert peer.index.height == peer.ledger.height


class TestDurability:
    def test_checkpoints_write_no_index_file(self):
        """The index is derived state: a checkpoint writes the world
        snapshot (a base and its deltas), nothing else."""
        framework = _durable_framework()
        manager = framework.durability
        assert manager.stats.checkpoints >= 2 * len(framework.channel.peers)
        for name in framework.channel.peers:
            base, *deltas = manager.stores[name].files()
            assert base == "checkpoint", name
            assert all(f.startswith("checkpoint-delta-") for f in deltas), name

    def test_wal_replay_restores_index(self):
        framework = _durable_framework()
        peer = framework.channel.peers["peer1.org1"]
        outcome = framework.durability.crash_and_recover("peer1.org1")
        assert outcome.kind == "wal_replay", outcome.detail()
        assert outcome.checkpoint_height >= 4 and outcome.replayed_blocks > 0
        assert peer.ledger.base_height == outcome.checkpoint_height
        _assert_matches_survivors(framework, peer)

    def test_a_doctored_wal_epoch_forces_state_transfer(self):
        """Replay checks every epoch the index rebuilt from the checkpoint
        against the one journaled: a well-framed WAL record that lies about
        it is untrustworthy, and recovery falls back to state transfer."""
        from repro.storage.persistence import WAL_LOG
        from repro.util.serialization import from_canonical_json

        framework = _durable_framework()
        peer = framework.channel.peers["peer1.org1"]
        store = framework.durability.stores[peer.name]
        records, _ = store.read_log(WAL_LOG)
        assert records
        store.truncate_log(WAL_LOG)
        for payload in records:
            doc = from_canonical_json(payload)
            doc["index_epoch"] = "ab" * 32
            store.append(WAL_LOG, canonical_json(doc))
        store.sync()
        outcome = framework.durability.crash_and_recover(peer.name)
        assert (outcome.kind, outcome.wal_damage) == ("state_transfer", "invalid")
        _assert_matches_survivors(framework, peer)

    def test_state_transfer_rebuilds_index(self):
        from repro.storage import CORRUPT

        framework = _durable_framework()
        peer = framework.channel.peers["peer1.org1"]
        root_before = peer.index.root()
        framework.durability.damage_wal("peer1.org1", CORRUPT)
        outcome = framework.durability.crash_and_recover("peer1.org1")
        assert outcome.kind == "state_transfer", outcome.detail()
        assert peer.index.root() == root_before
        _assert_matches_survivors(framework, peer)

    def test_rebuilt_index_matches_the_live_one(self):
        framework = make_framework()
        populate(framework, n=4)
        framework.record_trust_on_chain("idx-cam")
        framework.channel.flush()
        peer = next(iter(framework.channel.peers.values()))
        live = peer.index
        rebuilt = PeerIndex.from_world(peer.world, peer.ledger.height)
        assert rebuilt.root() == live.root()
        assert rebuilt.height == live.height
        assert rebuilt.epochs == {live.height - 1: live.epochs[live.height - 1]}
        assert rebuilt.bands == live.bands == {"trusted": live.bands["trusted"]}
        assert rebuilt.lookup("source", "idx-cam") == live.lookup("source", "idx-cam")

    def test_rebuilt_index_tracks_further_blocks(self):
        """What WAL replay does after a checkpoint: a rebuild from world
        state, extended block by block, stays equal to the live index."""
        chain = _Chain()
        chain.commit(_record_write("e0", "src-a", "cam-a", 600.0))
        chain.commit(_record_write("e1", "src-b", "cam-b", 1200.0, "bus"))
        chain.commit(_trust_write("src-a", 0.9), _trust_write("src-b", 0.1))
        chain.commit()
        index = chain.index
        rebuilt = PeerIndex.from_world(chain.world, index.height)
        further = [
            [_record_write("e2", "src-a", "cam-a", 601.0)],  # appends to postings
            [_record_write("e3", "src-c", "cam-c", 9000.0, "van")],  # new postings
            [_trust_write("src-b", 0.8), _delete_write("e0")],
        ]
        for writes in further:
            for target in (index, rebuilt):
                target.apply_block(_block(target.height, writes))
            assert rebuilt.root() == index.root()
        assert rebuilt.tombstones == index.tombstones == {"e0"}
        assert rebuilt.epochs == {n: e for n, e in index.epochs.items() if n >= 3}


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
        client, _ = populate(framework, n=3)
        client.engine.run("source_id = 'idx-cam'")
        report = framework.sanitizer.finalize()
        assert report.ok, report.render()
        assert report.checks["index"] > 0

    def test_state_scan_route_is_parity_checked(self):
        framework = make_framework(sanitize="index")
        client, _ = populate(framework, n=3)
        checks = framework.sanitizer.report().checks["index"]
        rows = client.engine.run("metadata.timestamp >= 800 LIMIT 1")  # no route
        assert len(rows) == 1 and client.engine.stats.index_hits == 0
        assert framework.sanitizer.report().checks["index"] == checks + 1
        report = framework.sanitizer.finalize()
        assert report.ok, report.render()

    def test_a_caller_changing_a_shared_record_is_flagged(self):
        """``QueryRow.record`` is read-only; SAN309's fresh chaincode decode
        is what notices a caller who wrote to one — also when the repeat is
        the same text at the same height."""
        for repeat in ("metadata.camera_id = 'idx-cam'", "source_id = 'idx-cam'"):
            framework = make_framework(sanitize="index")
            client, _ = populate(framework, n=3)
            rows = client.engine.run("source_id = 'idx-cam'")
            before = framework.sanitizer.report()
            assert before.ok
            rows[0].record["cid"] = "bafy-scribbled"
            again = client.engine.run(repeat)
            assert again[0].record is rows[0].record
            after = framework.sanitizer.report()
            assert after.checks["index"] == before.checks["index"] + 1, repeat
            report = framework.sanitizer.finalize()
            assert [f.rule_id for f in report.findings] == ["SAN309"], repeat

    def test_divergent_index_is_flagged(self):
        framework = make_framework(sanitize="index")
        client, _ = populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        # Corrupt one posting chain, then commit another block: SAN308's
        # from-scratch rebuild can no longer reproduce the live root.
        posting = peer.index.postings[("source", "idx-cam")]
        posting.chain = "00" * 32
        client.submit(b"one-more", dict(META))
        report = framework.sanitizer.finalize()
        assert any(f.rule_id == "SAN308" for f in report.findings)

    def test_corruption_no_later_block_touches_is_flagged(self):
        framework = make_framework(sanitize="index")
        client, _ = populate(framework, n=2)
        peer = next(iter(framework.channel.peers.values()))
        # The next submit (a car at t=100) appends to neither this
        # posting nor its leaf, so the maintained tree keeps serving the
        # cached leaf hash: only re-hashing the live postings shows it.
        peer.index.postings[("class", "truck")].chain = "00" * 32
        client.submit(b"one-more", dict(META))
        report = framework.sanitizer.finalize()
        findings = [f for f in report.findings if f.rule_id == "SAN308"]
        assert findings
        assert all("re-hashed from live postings" in f.message for f in findings)
        assert not any("maintained" in f.message for f in findings)
