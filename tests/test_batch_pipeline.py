"""Regression tests for the batched ingest/order/query pipeline.

Covers the three bug fixes (provenance misattribution in multi-source
batches, fatal-instead-of-skipped admission failures, a block committed
mid-query + dishonest ``verified`` flags) and the batched-consensus
contract (one PBFT instance per cut block, per-transaction verdicts).
"""

import pytest

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.errors import DagError, UntrustedSourceError
from repro.fabric import BftOrderer, ValidationCode
from repro.trust import SourceTier
from repro.workloads.traffic import IngestItem

from tests.fabric_helpers import make_network

META = {"timestamp": 1.0, "detections": []}


def make_framework(batch=8, consensus="solo"):
    return Framework(FrameworkConfig(consensus=consensus, max_batch_size=batch))


def make_items(source_id, n=2):
    return [
        IngestItem(
            source_id=source_id,
            payload=f"{source_id}-frame-{i}".encode() * 40,
            metadata=dict(META),
            observation=None,
        )
        for i in range(n)
    ]


def quarantine(framework, source_id):
    for _ in range(30):
        framework.trust.record_validation(source_id, False, 0, 4)


class TestBatchProvenanceAttribution:
    def test_each_entry_attributed_to_its_own_source(self):
        """A 3-source batch must not attribute everything to the first
        source (or a synthetic 'batch-ingestor' actor)."""
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        sources = ["cam-a", "cam-b", "cam-c"]
        items = []
        for source in sources:
            ingestor.register(framework.register_source(source, tier=SourceTier.TRUSTED))
            items.extend(make_items(source, 2))
        report = ingestor.ingest(items)
        assert report.committed == 6

        client = Client(framework, framework.register_source("auditor", tier=SourceTier.TRUSTED))
        by_entry = {entry_id: item for entry_id, item in zip(report.entry_ids, items)}
        seen_actors = set()
        for entry_id, item in by_entry.items():
            trail = client.provenance(entry_id)
            actors = {event["actor"] for event in trail}
            assert actors == {item.source_id}
            seen_actors |= actors
        assert seen_actors == set(sources)

    def test_trail_matches_client_submit_shape(self):
        """Batch ingest writes the same captured → stored trail as
        Client.submit, with the same detail keys."""
        framework = make_framework()
        identity = framework.register_source("cam-t", tier=SourceTier.TRUSTED)
        ingestor = BatchIngestor(framework)
        ingestor.register(identity)
        report = ingestor.ingest(make_items("cam-t", 1))

        client = Client(framework, identity)
        submitted = client.submit(b"reference-payload", dict(META))

        batch_trail = client.provenance(report.entry_ids[0])
        submit_trail = client.provenance(submitted.entry_id)
        assert [e["action"] for e in batch_trail] == [e["action"] for e in submit_trail]
        assert [e["action"] for e in batch_trail] == ["captured", "stored"]
        for batch_event, submit_event in zip(batch_trail, submit_trail):
            assert set(batch_event["details"]) == set(submit_event["details"])
        # The stored event's block is the block of its own tx_id, so the
        # trail no longer spends a second round to write it down.
        assert [set(e["details"]) for e in submit_trail] == [{"data_hash"}, {"cid"}]
        assert {e["tx_id"] for e in submit_trail} == {submitted.tx_id}

    def test_provenance_chain_verifies(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("cam-v", tier=SourceTier.TRUSTED))
        report = ingestor.ingest(make_items("cam-v", 3))
        client = Client(framework, framework.register_source("reader", tier=SourceTier.TRUSTED))
        for entry_id in report.entry_ids:
            assert client.verify_provenance(entry_id)["length"] == 2


class TestPartialAdmission:
    def test_rejected_source_skipped_not_fatal(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("good-cam", tier=SourceTier.TRUSTED))
        bad = framework.register_source("bad-cam")
        ingestor.register(bad)
        quarantine(framework, "bad-cam")

        items = make_items("good-cam", 3) + make_items("bad-cam", 2)
        report = ingestor.ingest(items)
        assert report.committed == 3
        assert report.rejected == 2
        assert report.skipped_sources == ("bad-cam", "bad-cam")
        assert report.submitted == 3  # skipped items never became transactions

    def test_unregistered_source_skipped_when_others_admissible(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("known", tier=SourceTier.TRUSTED))
        report = ingestor.ingest(make_items("known", 2) + make_items("ghost", 1))
        assert report.committed == 2
        assert report.rejected == 1
        assert "ghost" in report.skipped_sources

    def test_skipped_payloads_not_counted(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("only", tier=SourceTier.TRUSTED))
        good = make_items("only", 2)
        report = ingestor.ingest(good + make_items("ghost", 2))
        assert report.payload_bytes == sum(len(i.payload) for i in good)

    def test_all_inadmissible_raises(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        with pytest.raises(UntrustedSourceError, match="no admissible item"):
            ingestor.ingest(make_items("ghost", 3))

    def test_skipped_entries_still_retrievable_for_good_sources(self):
        framework = make_framework()
        ingestor = BatchIngestor(framework)
        identity = framework.register_source("ret-cam", tier=SourceTier.TRUSTED)
        ingestor.register(identity)
        report = ingestor.ingest(make_items("ret-cam", 2) + make_items("ghost", 1))
        client = Client(framework, identity)
        for entry_id in report.entry_ids:
            assert client.retrieve(entry_id).verified


class TestBlocksAccounting:
    def test_blocks_counts_only_data_blocks(self):
        """8 items (records + trails) in one batch = 1 data block, and the
        batch's score write cuts no block of its own: it rides the next
        batch's block."""
        framework = make_framework(batch=8)
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("blk-cam"))  # untrusted: scored
        height_before = framework.channel.height()
        report = ingestor.ingest(make_items("blk-cam", 8))
        assert report.blocks == 1
        assert framework.channel.height() - height_before == report.blocks
        peer = next(iter(framework.channel.peers.values()))
        assert "trust:blk-cam" not in dict(peer.world.range("trust:", "trust:\x7f"))

        second = ingestor.ingest([
            IngestItem("blk-cam", b"second batch %d " % i * 40, dict(META), None)
            for i in range(8)
        ])
        assert second.blocks == 1
        assert framework.channel.height() - height_before == 2
        block = peer.ledger.blocks()[-1]
        fns = [tx.proposal.fn for tx in block.transactions]
        # The first carrier takes the queued rider right behind it.
        assert fns == ["store", "put_score"] + ["store"] * 7
        assert all(code.name == "VALID" for code in block.validation_codes)
        assert peer.world.get("trust:blk-cam") is not None


class TestMidQueryCommit:
    def test_block_committed_mid_query_is_not_served_stale(self):
        """A block landing while a query reads the chain is in the answer of
        the next run of the same text."""
        framework = make_framework()
        identity = framework.register_source("race-cam", tier=SourceTier.TRUSTED)
        client = Client(framework, identity)
        client.submit(b"first", dict(META))
        engine = client.engine

        query = "source_id = 'race-cam'"
        # Pin the chaincode fallback: the race is injected into its read.
        original = engine._chain_records

        def racy_read():
            rows = original()
            # A writer commits while this query is executing.
            client.submit(b"second", dict(META))
            return rows

        engine._index_peer = lambda height: None
        engine._chain_records = racy_read
        try:
            assert len(engine.run(query)) == 1
        finally:
            del engine._index_peer, engine._chain_records
        # The first answer predates the mid-query commit; the next run sees
        # both entries.
        rows = engine.run(query)
        assert len(rows) == 2


class TestVerifiedFlag:
    def test_a_record_is_verified_by_its_cid_alone(self):
        """The CID is the one commitment: a record that carries nothing else
        reads back verified, and a payload rotted under it never does."""
        framework = make_framework()
        client = Client(framework, framework.register_source("vf-cam", tier=SourceTier.TRUSTED))
        cid = framework.ipfs.add(b"committed-bytes").cid
        record = {"entry_id": "synthetic", "cid": cid.encode()}
        data, verified = client.engine.fetch_payload_verified(record)
        assert data == b"committed-bytes"
        assert verified is True
        framework.ipfs.node("ipfs-0").blockstore.corrupt(cid, b"other-bytes")
        with pytest.raises(DagError):
            client.engine.fetch_payload_verified(record)

    def test_a_stored_entry_reads_back_verified(self):
        framework = make_framework()
        identity = framework.register_source("vf2-cam", tier=SourceTier.TRUSTED)
        client = Client(framework, identity)
        result = client.submit(b"payload", dict(META))
        row = client.engine.get(result.entry_id, fetch_data=True)
        assert row.verified is True


class TestBatchedConsensus:
    def test_one_instance_per_cut_block(self):
        framework = make_framework(batch=8, consensus="bft")
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("bft-cam", tier=SourceTier.TRUSTED))
        before = framework.channel.orderer.batches_ordered
        report = ingestor.ingest(make_items("bft-cam", 8))
        assert report.committed == 8
        orderer = framework.channel.orderer
        assert orderer.batches_ordered - before == 1
        # All eight transactions share the one decision's sequence number.
        channel = framework.channel
        ledger = next(iter(channel.peers.values())).ledger
        stores = [
            tx.tx_id
            for number in range(ledger.height)
            for tx in ledger.block(number).transactions
            if tx.proposal.fn == "store"
        ]
        seqs = {channel.result(tx_id).decision.seq for tx_id in stores[-8:]}
        assert len(seqs) == 1

    def test_mixed_verdicts_in_one_instance(self):
        """One batched instance must still produce per-transaction
        accept/reject outcomes (REJECTED_BY_CONSENSUS flagging)."""
        net, channel, alice = make_network()  # solo channel: tx factory only
        bad_ids = set()

        orderer = BftOrderer(
            max_batch_size=4, validator=lambda tx: tx.tx_id not in bad_ids
        )
        # The channel commits what this orderer delivers.
        channel.orderer = orderer
        orderer.register_delivery(channel._deliver_block)

        txs = []
        for i in range(4):
            proposal, responses = channel.endorse(alice, "kv", "put", [f"k{i}", "v"])
            txs.append(channel.assemble(proposal, responses))
        bad_ids.update({txs[1].tx_id, txs[3].tx_id})
        for tx in txs:
            orderer.submit(tx)
        orderer.flush()

        assert orderer.batches_ordered == 1
        results = [channel.result(tx.tx_id) for tx in txs]
        assert [r.ok for r in results] == [True, False, True, False]
        assert results[1].code is ValidationCode.REJECTED_BY_CONSENSUS
        assert channel.height() == 1
        assert {r.block_number for r in results} == {0}
        # The block names the refused positions; every peer reads them there.
        for peer in channel.peers.values():
            block = peer.ledger.block(0)
            assert block.header.rejected == (1, 3)
            assert {block.transactions[i].tx_id for i in block.header.rejected} == {
                txs[1].tx_id, txs[3].tx_id
            }
        # Per-tx votes are read from the one batch decision.
        for result in results:
            assert len(result.votes) >= 3

    def test_messages_per_tx_shrink_with_batch_size(self):
        """The amortization claim: consensus msgs/tx at batch 16 must be
        at most half of batch 1."""
        ratios = {}
        for batch in (1, 16):
            framework = make_framework(batch=batch, consensus="bft")
            ingestor = BatchIngestor(framework)
            ingestor.register(
                framework.register_source("amortize-cam", tier=SourceTier.TRUSTED)
            )
            orderer = framework.channel.orderer
            msgs_before, txs_before = orderer.consensus_messages, orderer.txs_ordered
            ingestor.ingest(make_items("amortize-cam", 16))
            msgs = orderer.consensus_messages - msgs_before
            txs = orderer.txs_ordered - txs_before
            assert txs == 16
            ratios[batch] = msgs / txs
        assert ratios[16] <= 0.5 * ratios[1]
