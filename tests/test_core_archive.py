"""Tests for signed evidence bundles (export/import across deployments)."""

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.core.archive import export_bundle, import_bundle
from repro.crypto.cid import CID
from repro.errors import IntegrityError, SignatureError, StorageError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.unixfs import UnixFS
from repro.trust import SourceTier


@pytest.fixture(scope="module")
def exporting_env():
    framework = Framework(FrameworkConfig(consensus="solo", chunk_size=4096))
    client = Client(
        framework, framework.register_source("export-cam", tier=SourceTier.TRUSTED)
    )
    payloads = {}
    for i in range(3):
        data = f"evidence-frame-{i}".encode() * 200
        receipt = client.submit(
            data,
            {"timestamp": 100.0 * i, "camera_id": "export-cam",
             "detections": [{"vehicle_class": "truck", "confidence": 0.9}]},
        )
        payloads[receipt.entry_id] = data
    return framework, client, payloads


class TestExportImport:
    def test_roundtrip(self, exporting_env):
        _, client, payloads = exporting_env
        raw = export_bundle(client, "source_id = 'export-cam'")
        bundle, store = import_bundle(raw)
        assert len(bundle.entries) == 3
        fs = UnixFS(store)
        for entry in bundle.entries:
            assert fs.read_file(entry.cid) == payloads[entry.entry_id]

    def test_provenance_travels(self, exporting_env):
        _, client, _ = exporting_env
        raw = export_bundle(client, "source_id = 'export-cam'")
        bundle, _ = import_bundle(raw)
        for entry in bundle.entries:
            actions = [e["action"] for e in entry.provenance]
            assert actions[:2] == ["captured", "stored"]
            # Hash chain intact in transit.
            assert entry.provenance[1]["prev_hash"] == entry.provenance[0]["entry_hash"]

    def test_exporter_identity_verified(self, exporting_env):
        _, client, _ = exporting_env
        raw = export_bundle(client, "source_id = 'export-cam'")
        bundle, _ = import_bundle(raw, expected_exporter=client.identity.keypair.public)
        assert bundle.exporter["name"] == "export-cam"

    def test_wrong_expected_exporter_rejected(self, exporting_env):
        from repro.crypto.keys import KeyPair

        _, client, _ = exporting_env
        raw = export_bundle(client, "source_id = 'export-cam'")
        with pytest.raises(SignatureError, match="not the expected"):
            import_bundle(raw, expected_exporter=KeyPair.from_seed("stranger").public)

    def test_tampered_manifest_rejected(self, exporting_env):
        _, client, _ = exporting_env
        raw = bytearray(export_bundle(client, "source_id = 'export-cam'"))
        # Flip a byte inside the manifest region (skip the varint prefix).
        idx = raw.index(b"export-cam"[0:1], 5)
        raw[idx + 3] ^= 0x01
        with pytest.raises((SignatureError, Exception)):
            import_bundle(bytes(raw))

    def test_tampered_car_rejected(self, exporting_env):
        _, client, _ = exporting_env
        raw = bytearray(export_bundle(client, "source_id = 'export-cam'"))
        raw[-10] ^= 0xFF  # inside the CAR payload
        with pytest.raises(IntegrityError, match="CAR does not match"):
            import_bundle(bytes(raw))

    def test_empty_query_rejected(self, exporting_env):
        _, client, _ = exporting_env
        with pytest.raises(StorageError, match="matched nothing"):
            export_bundle(client, "source_id = 'nonexistent'")

    def test_selective_export(self, exporting_env):
        _, client, _ = exporting_env
        raw = export_bundle(
            client, "source_id = 'export-cam' AND metadata.timestamp >= 150 "
                    "AND metadata.timestamp <= 250"
        )
        bundle, _ = import_bundle(raw)
        assert len(bundle.entries) == 1
        assert bundle.entries[0].record["metadata"]["timestamp"] == 200.0

    def test_import_into_other_cluster_node(self, exporting_env):
        """The receiving jurisdiction serves imported data from its own IPFS."""
        _, client, payloads = exporting_env
        raw = export_bundle(client, "source_id = 'export-cam'")
        receiver = Framework(FrameworkConfig(consensus="solo", n_ipfs_nodes=2))
        target = receiver.ipfs.node("ipfs-0")
        bundle, _ = import_bundle(raw, blockstore=target.blockstore)
        for entry in bundle.entries:
            receiver.ipfs.dht.provide("ipfs-0", entry.cid)
            assert receiver.ipfs.cat(entry.cid, node="ipfs-1") == payloads[entry.entry_id]
