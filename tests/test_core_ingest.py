"""Tests for batched ingestion."""

import hashlib

import pytest

from repro import obs
from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.errors import UntrustedSourceError
from repro.trust import SourceTier
from repro.util.rng import rng_for
from repro.workloads.traffic import IngestItem, ingest_stream
from tests.ipfs_helpers import leaf_cids


def make_framework(batch=8, consensus="solo"):
    return Framework(FrameworkConfig(consensus=consensus, max_batch_size=batch))


def make_items(source_id, n=5):
    return [
        IngestItem(
            source_id=source_id,
            payload=f"frame-{i}".encode() * 50,
            metadata={"timestamp": float(i), "detections": []},
            observation=None,
        )
        for i in range(n)
    ]


class TestBatchIngestor:
    def test_batch_commits_all(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        identity = framework.register_source("cam-b", tier=SourceTier.TRUSTED)
        ingestor.register(identity)
        report = ingestor.ingest(make_items("cam-b", 6))
        assert report.submitted == 6
        assert report.committed == 6
        assert report.rejected == 0
        assert report.tx_per_s > 0

    def test_batching_cuts_fewer_blocks_than_items(self):
        framework = make_framework(batch=8)
        ingestor = BatchIngestor(framework)
        identity = framework.register_source("cam-c", tier=SourceTier.TRUSTED)
        ingestor.register(identity)
        report = ingestor.ingest(make_items("cam-c", 8))
        assert report.blocks < report.submitted

    def test_entries_retrievable_after_batch(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        identity = framework.register_source("cam-d", tier=SourceTier.TRUSTED)
        ingestor.register(identity)
        report = ingestor.ingest(make_items("cam-d", 3))
        client = Client(framework, identity)
        for entry_id in report.entry_ids:
            result = client.retrieve(entry_id)
            assert result.verified

    def test_same_batch_leaves_the_same_offchain_state(self):
        """Insertion order and DHT routing cost are structural: two fresh
        frameworks fed the same 16 items end up byte-for-byte alike."""
        # Four 64 KiB chunks per item: enough work per payload that a racing
        # writer would be seen in the block-store order.
        items = [
            IngestItem(
                source_id="cam-s",
                payload=rng_for(9, "ingest", str(i)).bytes(256 * 1024),
                metadata={"timestamp": float(i), "detections": []},
                observation=None,
            )
            for i in range(16)
        ]

        def run():
            framework = make_framework(batch=16)
            ingestor = BatchIngestor(framework)
            ingestor.register(framework.register_source("cam-s", tier=SourceTier.TRUSTED))
            assert ingestor.ingest(items).committed == 16
            ipfs = framework.ipfs
            stores = {
                peer_id: list(node.blockstore.cids()) for peer_id, node in ipfs.nodes.items()
            }
            return ipfs.stat(), stores, ipfs.dht.lookup_hops

        assert run() == run()

    def test_unregistered_identity_rejected(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        with pytest.raises(UntrustedSourceError, match="no registered identity"):
            ingestor.ingest(make_items("ghost", 1))

    def test_quarantined_source_rejected(self):
        framework = make_framework()
        identity = framework.register_source("bad-mob")
        for _ in range(30):
            framework.trust.record_validation("bad-mob", False, 0, 4)
        ingestor = BatchIngestor(framework)
        ingestor.register(identity)
        with pytest.raises(UntrustedSourceError, match="rejected"):
            ingestor.ingest(make_items("bad-mob", 1))

    def test_untrusted_source_trust_updated_once_per_batch(self):
        framework = make_framework()
        identity = framework.register_source("mob-e")
        ingestor = BatchIngestor(framework)
        ingestor.register(identity)
        before = framework.trust.score("mob-e")
        ingestor.ingest(make_items("mob-e", 5))
        assert framework.trust.score("mob-e") > before
        # One coalesced on-chain score write for the batch.
        client = Client(framework, identity)
        on_chain = client.on_chain_trust("mob-e")
        assert on_chain["score"] == pytest.approx(framework.trust.score("mob-e"), abs=1e-5)

    def test_vision_stream_end_to_end(self):
        framework = make_framework(batch=16)
        ingestor = BatchIngestor(framework)
        items = list(ingest_stream(n_videos=2, frames_per_video=2, seed=5))
        sources = {item.source_id for item in items}
        for source in sources:
            ingestor.register(framework.register_source(source, tier=SourceTier.TRUSTED))
        report = ingestor.ingest(items)
        assert report.committed == len(items)
        assert report.mib_per_s > 0

    def test_throughput_beats_sequential(self):
        """The point of batching: fewer consensus rounds per item."""
        import time

        items = make_items("seq-cam", 10)

        framework_seq = Framework(FrameworkConfig(consensus="bft", max_batch_size=1))
        client = Client(
            framework_seq, framework_seq.register_source("seq-cam", tier=SourceTier.TRUSTED)
        )
        start = time.perf_counter()
        for item in items:
            client.submit(item.payload, dict(item.metadata))
        sequential = time.perf_counter() - start

        framework_batch = Framework(FrameworkConfig(consensus="bft", max_batch_size=16))
        ingestor = BatchIngestor(framework_batch)
        ingestor.register(
            framework_batch.register_source("seq-cam", tier=SourceTier.TRUSTED)
        )
        start = time.perf_counter()
        ingestor.ingest(items)
        batched = time.perf_counter() - start

        assert batched < sequential


class TestOneRecordShape:
    """``Client.submit`` and ``BatchIngestor.ingest`` send the same store:
    the payload's CID is the record's one commitment (no payload hash is
    stored, in the record or its metadata), while a caller's own metadata is
    kept as given."""

    @staticmethod
    def stored_metadata(metadata):
        framework = make_framework()
        identity = framework.register_source("cam-shape", tier=SourceTier.TRUSTED)
        client = Client(framework, identity)
        submitted = client.submit(b"same shape" * 20, dict(metadata))
        ingestor = BatchIngestor(framework)
        ingestor.register(identity)
        (ingested,) = ingestor.ingest(
            [IngestItem("cam-shape", b"same shape" * 20, dict(metadata), None)]
        ).entry_ids
        records = [client.get_metadata(submitted.entry_id), client.get_metadata(ingested)]
        assert [r["cid"] for r in records] == [submitted.cid] * 2
        assert not any("data_hash" in r for r in records)
        return [r["metadata"] for r in records]

    def test_submit_and_ingest_store_equal_metadata(self):
        submitted, ingested = self.stored_metadata({"timestamp": 1.0, "detections": []})
        assert submitted == ingested == {
            "timestamp": 1.0, "detections": [], "source_id": "cam-shape",
        }

    def test_a_callers_own_data_hash_is_kept(self):
        own = {"timestamp": 1.0, "data_hash": "ab" * 32}
        submitted, ingested = self.stored_metadata(own)
        assert submitted == ingested == dict(own, source_id="cam-shape")


class TestEachPayloadByteHashedOnce:
    """IPFS hashes every chunk to build the CID, and the CID is what the
    store sends: a batch takes no second digest of its payloads."""

    @staticmethod
    def counting_sha256(monkeypatch):
        """Counts every byte handed to ``hashlib.sha256``, the one sha-256
        every hash in the system goes through."""
        counted = [0]
        real = hashlib.sha256

        def sha256(data=b"", **kwargs):
            counted[0] += memoryview(data).nbytes
            return real(data, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        return counted

    def test_a_batch_of_large_payloads_hashes_each_byte_once(self, monkeypatch):
        framework = Framework(FrameworkConfig(max_batch_size=16))
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("cam-big", tier=SourceTier.TRUSTED))
        rng = rng_for(11, "hash-once")
        items = [
            IngestItem("cam-big", rng.bytes(2 << 20), {"timestamp": float(i)}, None)
            for i in range(16)
        ]
        payload_bytes = sum(len(item.payload) for item in items)
        counted = self.counting_sha256(monkeypatch)
        with obs.profiling() as profiler:
            report = ingestor.ingest(items)
        assert report.committed == 16
        under_crypto = sum(
            s.n_bytes for s in profiler.center_stats() if s.center.startswith("crypto.")
        )
        assert payload_bytes <= under_crypto <= 1.01 * payload_bytes
        assert payload_bytes <= counted[0] <= 1.01 * payload_bytes

    def test_a_multi_leaf_submit_sends_the_cid_and_receipts_the_sha256(self):
        framework = make_framework(batch=1)
        client = Client(framework, framework.register_source("cam-4", tier=SourceTier.TRUSTED))
        data = rng_for(12, "four-leaves").bytes(256 * 1024)  # four 64 KiB chunks
        receipt = client.submit(data, {"timestamp": 1.0})
        assert receipt.ok
        assert receipt.data_hash == hashlib.sha256(data).hexdigest()
        assert len(leaf_cids(framework.ipfs.node().blockstore, CID.parse(receipt.cid))) == 4
        peer = next(iter(framework.channel.peers.values()))
        (tx,) = [
            tx for tx in peer.ledger.blocks()[-1].transactions if tx.proposal.fn == "store"
        ]
        assert list(tx.proposal.args)[0] == receipt.cid and len(tx.proposal.args) == 2
        assert client.get_metadata(receipt.entry_id)["cid"] == receipt.cid


class TestSettlementParity:
    """``Client.submit`` and ``BatchIngestor.ingest`` settle a committed
    store through one path: the validators' real votes, and the pool sees
    every decision."""

    N = 4

    def settle(self, path, behaviours):
        from repro.consensus import Behaviour

        framework = Framework(FrameworkConfig())
        for name, behaviour in behaviours.items():
            framework.channel.orderer.cluster.replicas[name].behaviour = Behaviour(behaviour)
        identity = framework.register_source("mob", tier=SourceTier.UNTRUSTED)
        items = make_items("mob", self.N)
        if path == "submit":
            client = Client(framework, identity)
            for item in items:
                assert client.submit(item.payload, item.metadata).ok
        else:
            ingestor = BatchIngestor(framework)
            ingestor.register(identity)
            assert ingestor.ingest(items).committed == self.N
        return framework

    @pytest.mark.parametrize("behaviours", [{}, {"validator-3": "always-invalid"}])
    def test_submit_and_ingest_settle_the_same_items_alike(self, behaviours):
        submitted = self.settle("submit", behaviours)
        ingested = self.settle("ingest", behaviours)
        assert ingested.trust.score("mob") == submitted.trust.score("mob")
        assert ingested.trust.chain_record("mob") == submitted.trust.chain_record("mob")
        assert ingested.validator_pool.stats() == submitted.validator_pool.stats()
        if behaviours:
            record = ingested.validator_pool.record("validator-3")
            assert record.votes == record.disagreements == self.N
