"""LedgerExplorer: browsing, provenance reconstruction, and the audit.

The provenance tests regression-guard the batch-ingest attribution fix:
the trail the explorer reconstructs from committed blocks must equal the
trail the chaincode serves from world state, for single-item submits and
batch ingest alike — including each event's per-source actor.
"""

import json

import pytest

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.errors import ObservabilityError
from repro.obs.explorer import LedgerExplorer
from repro.trust import SourceTier
from repro.workloads.traffic import IngestItem


@pytest.fixture()
def deployment():
    framework = Framework(FrameworkConfig(peers_per_org=2, n_ipfs_nodes=3))
    client = Client(
        framework, framework.register_source("cam-solo", tier=SourceTier.TRUSTED)
    )
    return framework, client


def _submit(client, n=3):
    ids = []
    for i in range(n):
        receipt = client.submit(
            b"explorer payload %d " % i * 16,
            {"timestamp": float(i), "detections": []},
        )
        ids.append(receipt.entry_id)
    client.framework.channel.flush()
    return ids


class TestBrowsing:
    def test_blocks_and_block_view_agree(self, deployment):
        framework, client = deployment
        _submit(client)
        explorer = LedgerExplorer(framework.channel)
        blocks = explorer.blocks()
        assert len(blocks) == explorer.height()
        assert [b["number"] for b in blocks] == list(range(explorer.height()))
        assert blocks[2] == explorer.block_view(2)
        for block in blocks:
            assert len(block["transactions"]) == block["tx_count"]
            for tx in block["transactions"]:
                assert tx["code"] == "VALID"

    def test_tx_view_locates_a_committed_tx(self, deployment):
        framework, client = deployment
        _submit(client, n=1)
        explorer = LedgerExplorer(framework.channel)
        tx_meta = explorer.blocks()[-1]["transactions"][0]
        view = explorer.tx_view(tx_meta["tx_id"])
        assert view["code"] == "VALID"
        assert view["chaincode"] == tx_meta["chaincode"]
        assert view["writes"]  # committed writes are listed by key
        assert view["endorsers"]

    def test_blocks_limit_and_start(self, deployment):
        framework, client = deployment
        _submit(client)
        explorer = LedgerExplorer(framework.channel)
        assert [b["number"] for b in explorer.blocks(start=2, limit=2)] == [2, 3]

    def test_summary_matches_monitor_shim(self, deployment):
        from repro.fabric.monitor import channel_summary

        framework, client = deployment
        _submit(client)
        explorer = LedgerExplorer(framework.channel)
        assert explorer.summary() == channel_summary(framework.channel)

    def test_no_online_peer_is_an_error(self, deployment):
        framework, client = deployment
        _submit(client, n=1)
        for peer in framework.channel.peers.values():
            peer.online = False
        with pytest.raises(ObservabilityError):
            LedgerExplorer(framework.channel).reference_peer()


class TestProvenance:
    def test_single_submit_trail_matches_world_state(self, deployment):
        framework, client = deployment
        entry_id = _submit(client, n=1)[0]
        explorer = LedgerExplorer(framework.channel)
        trail = explorer.provenance_trail(entry_id)
        assert [e["action"] for e in trail] == ["captured", "stored"]
        assert all(e["actor"] == "cam-solo" for e in trail)
        assert all(e["entry_id"] == entry_id for e in trail)
        assert trail == explorer.lineage(entry_id)
        assert trail == client.provenance(entry_id)

    def test_trail_spans_store_and_bare_record_transactions(self, deployment):
        """Events are found by the key they wrote, whichever chaincode call
        wrote them: the store transaction's two, then retrieve's own."""
        framework, client = deployment
        entry_id = _submit(client, n=1)[0]
        client.retrieve(entry_id)
        explorer = LedgerExplorer(framework.channel)
        trail = explorer.provenance_trail(entry_id)
        assert [e["action"] for e in trail] == ["captured", "stored", "accessed"]
        assert trail[0]["tx_id"] == trail[1]["tx_id"] == entry_id != trail[2]["tx_id"]
        assert trail == explorer.lineage(entry_id)

    def test_batch_ingest_trail_attributes_each_source(self):
        framework = Framework(FrameworkConfig(max_batch_size=8))
        ingestor = BatchIngestor(framework, record_provenance=True)
        for source in ("cam-a", "cam-b"):
            ingestor.register(
                framework.register_source(source, tier=SourceTier.TRUSTED)
            )
        items = [
            IngestItem(
                source_id="cam-a" if i % 2 == 0 else "cam-b",
                payload=b"batch %d " % i * 16,
                metadata={"timestamp": float(i), "detections": []},
                observation=None,
            )
            for i in range(6)
        ]
        report = ingestor.ingest(items)
        framework.channel.flush()
        explorer = LedgerExplorer(framework.channel)
        assert len(report.entry_ids) == 6
        seen_sources = set()
        for entry_id in report.entry_ids:
            source_id = explorer.entry(entry_id)["source_id"]
            seen_sources.add(source_id)
            trail = explorer.provenance_trail(entry_id)
            assert [e["action"] for e in trail] == ["captured", "stored"]
            # The attribution guarantee: every event carries the source
            # that actually submitted the item, not the batch's first.
            assert {e["actor"] for e in trail} == {source_id}
            assert trail == explorer.lineage(entry_id)
        assert seen_sources == {"cam-a", "cam-b"}

    def test_unknown_entry_has_empty_trail(self, deployment):
        framework, client = deployment
        _submit(client, n=1)
        explorer = LedgerExplorer(framework.channel)
        assert explorer.provenance_trail("no-such-entry") == []


class TestTrustTimeline:
    def test_timeline_orders_score_snapshots(self, deployment):
        framework, client = deployment
        _submit(client, n=1)
        framework.record_trust_on_chain("cam-solo")
        framework.trust.record_validation(
            "cam-solo", accepted=True, valid_votes=3, invalid_votes=0
        )
        framework.record_trust_on_chain("cam-solo")
        framework.channel.flush()
        explorer = LedgerExplorer(framework.channel)
        assert "cam-solo" in explorer.trust_sources()
        timeline = explorer.trust_timeline("cam-solo")
        assert len(timeline) == 2
        assert [t["source_id"] for t in timeline] == ["cam-solo", "cam-solo"]
        assert timeline[0]["block"] <= timeline[1]["block"]
        assert all("score" in t and "tx_id" in t for t in timeline)


class TestAudit:
    def test_clean_ledger_passes(self, deployment):
        framework, client = deployment
        _submit(client)
        report = LedgerExplorer(framework.channel, ipfs=framework.ipfs).audit_chain()
        assert report.ok, report.to_dict()
        assert report.blocks_checked == framework.channel.height()
        assert report.txs_checked > 0
        assert report.state_keys_checked > 0
        assert report.offchain_files_checked == 3
        assert report.offchain_blocks_checked >= 3

    def test_tampered_world_state_is_pinpointed(self, deployment):
        framework, client = deployment
        entry_id = _submit(client, n=1)[0]
        explorer = LedgerExplorer(framework.channel)
        peer = explorer.reference_peer()
        key = "data:" + entry_id
        record = json.loads(peer.world.get(key))
        record["cid"] = "tampered"
        # A dishonest committer silently rewrites its state DB.
        peer.world._values[key] = json.dumps(record).encode()
        report = explorer.audit_chain(offchain=False)
        assert not report.ok
        findings = [f for f in report.findings if f.check == "state_replay"]
        assert findings and key in findings[0].detail

    def test_ghost_key_is_a_state_replay_finding(self, deployment):
        """A key no transaction wrote: the explorer used to look only at the
        keys its replay produced, so it passed while SAN305 fired."""
        from repro.analysis import check_store
        from repro.fabric.worldstate import Version

        framework, client = deployment
        _submit(client, n=1)
        explorer = LedgerExplorer(framework.channel)
        peer = explorer.reference_peer()
        peer.world.apply_write("data:ghost", b"{}", Version(0, 0), "evil", 0.0)
        report = explorer.audit_chain(offchain=False)
        findings = [f for f in report.findings if f.check == "state_replay"]
        assert len(findings) == 1 and "'data:ghost'" in findings[0].detail
        sanitizer = check_store(peer.ledger, peer.world)
        assert [f.rule_id for f in sanitizer] == ["SAN305"]
        assert "'data:ghost'" in sanitizer[0].message

    def test_rewritten_state_on_a_non_reference_peer_is_peer_divergence(
        self, deployment
    ):
        """Replica parity compares state digests as well as head hashes, so
        it does not matter which peer the explorer happens to read from."""
        framework, client = deployment
        entry_id = _submit(client, n=1)[0]
        explorer = LedgerExplorer(framework.channel)
        reference = explorer.reference_peer()
        victim = next(
            p for p in framework.channel.peers.values() if p is not reference
        )
        victim.world._values["data:" + entry_id] = b'{"cid": "tampered"}'
        report = explorer.audit_chain(offchain=False)
        assert not report.ok
        assert [f.check for f in report.findings] == ["peer_divergence"]
        detail = report.findings[0].detail
        assert "state digest diverges" in detail and "head hash" not in detail
        assert reference.name in detail and victim.name in detail

    def test_offchain_bit_rot_names_node_and_block(self, deployment):
        framework, client = deployment
        entry_id = _submit(client, n=1)[0]
        explorer = LedgerExplorer(framework.channel, ipfs=framework.ipfs)
        record = json.loads(explorer.reference_peer().world.get("data:" + entry_id))
        from repro.crypto.cid import CID

        root = CID.parse(record["cid"])
        rotted = None
        for node_id, node in sorted(framework.ipfs.nodes.items()):
            if node.online and node.blockstore.has(root):
                node.blockstore.corrupt(root, b"rotten bytes")
                rotted = node_id
                break
        assert rotted is not None
        report = explorer.audit_chain()
        assert not report.ok
        findings = [f for f in report.findings if f.check == "offchain_block"]
        assert findings, report.to_dict()
        assert findings[0].node == rotted
        assert findings[0].cid == record["cid"]

    def test_header_tamper_is_pinpointed(self, deployment):
        framework, client = deployment
        _submit(client)
        explorer = LedgerExplorer(framework.channel)
        ledger = explorer.reference_peer().ledger
        victim = ledger.blocks()[2]
        import dataclasses

        forged_header = dataclasses.replace(
            victim.header, data_hash="0" * 64
        )
        forged = dataclasses.replace(victim, header=forged_header)
        ledger._blocks[2 - ledger.base_height] = forged
        report = explorer.audit_chain(offchain=False)
        assert not report.ok
        checks = {(f.check, f.block) for f in report.findings}
        assert ("merkle_root", 2) in checks
        # Forging the header also breaks the next block's prev-hash link.
        assert ("header_chain", 3) in checks
