"""Lineage read from the data record equals the lineage the former writer
stored beside it.

A store writes its ``data:`` record only; ``captured`` and ``stored`` are
built from it when a lineage is read, and the first written event chains on
the built ``stored`` event. :mod:`tests.provenance_oracle` keeps the former
writer (record + two ``provenance.record`` calls + a head key) and replays
the committed ledger through it: every answer a reader gets — the
chaincode's ``lineage`` and ``verify``, the explorer's trail from blocks and
from world state, an imported bundle's trail — must equal the oracle's field
for field, hashes included.
"""

import json

import pytest

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.core.archive import export_bundle, import_bundle
from repro.crypto.cid import CID
from repro.errors import ChaincodeError
from repro.obs.explorer import LedgerExplorer
from repro.trust import SourceTier
from repro.workloads.traffic import IngestItem
from tests import provenance_oracle as oracle

META = {"timestamp": 7.0, "camera_id": "lineage-cam", "detections": []}
# A record field each built event depends on, and a well-formed forgery of it.
DOCTORED = {"cid": CID.for_data(b"doctored evidence").encode(), "uploader": "impostor"}


@pytest.fixture()
def deployment():
    framework = Framework(FrameworkConfig(consensus="solo", max_batch_size=8))
    client = Client(
        framework, framework.register_source("lineage-cam", tier=SourceTier.TRUSTED)
    )
    return framework, client


def assert_matches_oracle(framework, client, entry_ids):
    """Every reader's answer for each entry equals the former writer's."""
    client.framework.riders.drain()
    framework.channel.flush()
    replayed = oracle.replay(LedgerExplorer(framework.channel).reference_peer().ledger)
    explorer = LedgerExplorer(framework.channel)
    for entry_id in entry_ids:
        expected = oracle.lineage(replayed, entry_id)
        assert expected, entry_id
        assert client.provenance(entry_id) == expected
        assert client.verify_provenance(entry_id) == oracle.verify(replayed, entry_id)
        assert explorer.provenance_trail(entry_id) == expected
        assert explorer.lineage(entry_id) == expected
    return replayed


class TestEqualsTheFormerWriter:
    def test_one_submit(self, deployment):
        framework, client = deployment
        entry_id = client.submit(b"one frame" * 40, dict(META)).entry_id
        replayed = assert_matches_oracle(framework, client, [entry_id])
        assert [e["action"] for e in oracle.lineage(replayed, entry_id)] == [
            "captured", "stored",
        ]

    def test_one_batch_ingest(self, deployment):
        framework, _ = deployment
        ingestor = BatchIngestor(framework)
        clients = {}
        for source in ("cam-a", "cam-b"):
            identity = framework.register_source(source, tier=SourceTier.TRUSTED)
            ingestor.register(identity)
            clients[source] = Client(framework, identity)
        items = [
            IngestItem(("cam-a", "cam-b")[i % 2], b"batched %d " % i * 30, dict(META), None)
            for i in range(5)
        ]
        report = ingestor.ingest(items)
        assert len(report.entry_ids) == 5
        assert_matches_oracle(framework, clients["cam-a"], report.entry_ids)

    def test_accessed_events_of_two_readers_chain_on_the_stored_event(self, deployment):
        framework, client = deployment
        entry_id = client.submit(b"read me" * 40, dict(META)).entry_id
        readers = [
            Client(framework, framework.register_source(name, tier=SourceTier.TRUSTED))
            for name in ("reader-1", "reader-2")
        ]
        for reader in readers:
            assert reader.retrieve(entry_id).verified
        replayed = assert_matches_oracle(framework, client, [entry_id])
        chain = oracle.lineage(replayed, entry_id)
        assert [(e["action"], e["actor"]) for e in chain] == [
            ("captured", "lineage-cam"), ("stored", "lineage-cam"),
            ("accessed", "reader-1"), ("accessed", "reader-2"),
        ]
        assert chain[2]["prev_hash"] == chain[1]["entry_hash"]

    def test_a_bare_record_many_entry(self, deployment):
        framework, client = deployment
        events = [
            {"entry_id": "bare-entry", "action": action, "actor": "auditor", "details": {"n": n}}
            for n, action in enumerate(("flagged", "reviewed"))
        ]
        result = framework.channel.invoke(
            framework.admin, "provenance", "record_many", [json.dumps(events)]
        )
        assert result.ok
        replayed = assert_matches_oracle(framework, client, ["bare-entry"])
        assert oracle.lineage(replayed, "bare-entry")[0]["prev_hash"] == "0" * 64

    def test_an_exported_bundle_imports_the_same_trail(self, deployment):
        framework, client = deployment
        ids = [client.submit(b"evidence %d " % i * 40, dict(META)).entry_id for i in range(2)]
        client.retrieve(ids[0])
        replayed = assert_matches_oracle(framework, client, ids)
        bundle, _ = import_bundle(export_bundle(client, "source_id = 'lineage-cam'"))
        assert sorted(entry.entry_id for entry in bundle.entries) == sorted(ids)
        for entry in bundle.entries:
            assert list(entry.provenance) == oracle.lineage(replayed, entry.entry_id)


def test_an_ingest_without_record_provenance_now_has_a_verified_trail(deployment):
    """``record_provenance=False`` once sent a bare record with no trail; the
    option is ignored now, and the record is the trail's first two events."""
    framework, client = deployment
    ingestor = BatchIngestor(framework, record_provenance=False)
    ingestor.register(client.identity)
    report = ingestor.ingest([IngestItem("lineage-cam", b"quiet" * 50, dict(META), None)])
    (entry_id,) = report.entry_ids
    assert [e["action"] for e in client.provenance(entry_id)] == ["captured", "stored"]
    assert client.verify_provenance(entry_id)["length"] == 2


class TestADoctoredRecord:
    """The record is the evidence for its two events: doctoring it rewrites
    them consistently, so ``verify`` only catches it through the first event
    written after it — while the audit's replay catches it either way."""

    @staticmethod
    def doctor(framework, entry_id, field):
        key = "data:" + entry_id
        for peer in framework.channel.peers.values():
            record = json.loads(peer.world.get(key))
            record[field] = DOCTORED[field]
            peer.world._values[key] = json.dumps(record).encode()

    @staticmethod
    def state_replay_findings(framework):
        report = LedgerExplorer(framework.channel).audit_chain(offchain=False)
        return [f for f in report.findings if f.check == "state_replay"]

    @pytest.mark.parametrize("field", sorted(DOCTORED))
    def test_verify_fails_once_an_accessed_event_chained_on_it(self, deployment, field):
        framework, client = deployment
        entry_id = client.submit(b"evidence" * 40, dict(META)).entry_id
        client.retrieve(entry_id)
        assert client.verify_provenance(entry_id)["length"] == 3
        self.doctor(framework, entry_id, field)
        with pytest.raises(ChaincodeError, match="chain broken at seq 2"):
            client.verify_provenance(entry_id)
        assert self.state_replay_findings(framework)

    @pytest.mark.parametrize("field", sorted(DOCTORED))
    def test_the_audit_reports_it_before_any_event_chained_on_it(self, deployment, field):
        framework, client = deployment
        entry_id = client.submit(b"evidence" * 40, dict(META)).entry_id
        self.doctor(framework, entry_id, field)
        assert client.verify_provenance(entry_id)["length"] == 2
        findings = self.state_replay_findings(framework)
        assert findings and "data:" + entry_id in findings[0].detail
