"""Tests for batched ingestion."""

import pytest

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.errors import UntrustedSourceError
from repro.trust import SourceTier
from repro.util.rng import rng_for
from repro.workloads.traffic import IngestItem, ingest_stream


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
        ingestor = BatchIngestor(framework, record_provenance=False)
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
        ingestor = BatchIngestor(framework, record_provenance=False)
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
        ingestor = BatchIngestor(framework, record_provenance=False)
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
        ingestor = BatchIngestor(framework_batch, record_provenance=False)
        ingestor.register(
            framework_batch.register_source("seq-cam", tier=SourceTier.TRUSTED)
        )
        start = time.perf_counter()
        ingestor.ingest(items)
        batched = time.perf_counter() - start

        assert batched < sequential
