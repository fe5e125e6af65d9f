"""The Fig. 6 read path costs one world-state read and one hash per byte.

``QueryEngine.get`` reads the reference peer's world state (no signed
proposal), with the chaincode's ``get_data`` as fallback and oracle; a
payload checked against its on-chain ``data_hash`` skips the per-leaf CID
re-hash, while every read with nothing to compare against keeps it.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.errors import ChaincodeError, DagError
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.trust import SourceTier

META = {
    "timestamp": 100.0,
    "camera_id": "rp-cam",
    "detections": [{"vehicle_class": "car", "confidence": 0.9}],
}
SMALL = 4 * 1024      # one 64 KiB chunk
LARGE = 256 * 1024    # four chunks under one interior node


def payload(n: int, tag: bytes) -> bytes:
    return (tag * (n // len(tag) + 1))[:n]


def make_site(**overrides):
    framework = Framework(FrameworkConfig(consensus="solo", **overrides))
    client = Client(framework, framework.register_source("rp-cam", tier=SourceTier.TRUSTED))
    return framework, client


@pytest.fixture(scope="module")
def site():
    framework, client = make_site()
    stored = {}
    for i, size in enumerate((SMALL, LARGE, 17, SMALL)):
        data = payload(size, f"rp-{i}-".encode())
        receipt = client.submit(data, dict(META, timestamp=100.0 + i))
        assert receipt.ok
        stored[receipt.entry_id] = data
    return framework, client, stored


def hashed_bytes(call):
    """(result, bytes hashed under any ``crypto.*`` cost center) of ``call()``."""
    with obs.profiling() as profiler:
        result = call()
    n = sum(s.n_bytes for s in profiler.center_stats() if s.center.startswith("crypto."))
    return result, n


class TestGetReadsWorldState:
    def test_get_signs_no_proposal(self, site):
        framework, client, stored = site
        before = framework.channel.stats.queries
        for entry_id in stored:
            client.engine.get(entry_id)
            client.engine.get(entry_id, fetch_data=True)
        assert framework.channel.stats.queries == before

    def test_retrieve_signs_only_the_acl_check(self, site):
        framework, client, stored = site
        entry_id = next(iter(stored))
        before = framework.channel.stats.queries
        result = client.retrieve(entry_id)
        assert result.verified and result.data == stored[entry_id]
        assert framework.channel.stats.queries == before + 1

    def test_get_equals_the_chaincode_read_for_every_entry(self, site):
        framework, client, stored = site
        engine = client.engine
        for entry_id in stored:
            raw = framework.channel.query(
                client.identity, "data_retrieval", "get_data", [entry_id]
            )
            assert engine.get(entry_id).record == json.loads(raw)

    def test_get_returns_the_shared_row(self, site):
        _, client, stored = site
        entry_id = next(iter(stored))
        engine = client.engine
        assert engine.get(entry_id) is engine.get(entry_id)
        rows = engine.run(f"entry_id = '{entry_id}'")
        assert rows[0].record is engine.get(entry_id).record

    def test_unknown_id_raises_chaincode_error(self, site):
        framework, client, _ = site
        before = framework.channel.stats.queries
        with pytest.raises(ChaincodeError, match="No metadata found"):
            client.engine.get("no-such-entry")
        assert framework.channel.stats.queries == before + 1  # the fallback ran

    def test_no_in_sync_peer_falls_back_to_the_chaincode(self, site, monkeypatch):
        framework, client, stored = site
        monkeypatch.setattr(framework.channel.indexing, "reference_peer", lambda height=None: None)
        before = framework.channel.stats.queries
        for entry_id, data in stored.items():
            row = client.engine.get(entry_id, fetch_data=True)
            assert row.verified and row.data == data
        assert framework.channel.stats.queries == before + len(stored)

    def test_state_read_is_on_chain_read_stage(self, site):
        _, client, stored = site
        entry_id = next(iter(stored))
        with obs.enabled() as tracer:
            client.retrieve(entry_id)
        (root,) = tracer.spans("client.retrieve")
        names = [s.name for s in tracer.descendants(root)]
        assert "query.state_read" in names
        assert names.count("fabric.query") == 1  # the ACL check only
        stages = {s.stage for s in obs.pipeline_breakdown(tracer)["retrieval"].stages}
        assert "on-chain read" in stages


class TestEachByteHashedOnce:
    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_checked_local_read_hashes_each_byte_once(self, site, size):
        _, client, stored = site
        entry_id = next(e for e, d in stored.items() if len(d) == size)
        row, n = hashed_bytes(lambda: client.engine.get(entry_id, fetch_data=True))
        assert row.verified and row.data == stored[entry_id]
        assert n / len(row.data) == 1.0

    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_bare_cid_read_checks_every_leaf(self, site, size):
        framework, _, stored = site
        data = next(d for d in stored.values() if len(d) == size)
        cid = framework.ipfs.add(data).cid  # already stored: the same blocks
        got, n = hashed_bytes(lambda: framework.ipfs.cat(cid))
        assert got == data and n == len(data)

    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_unverified_read_checks_every_leaf(self, site, size):
        _, client, stored = site
        entry_id = next(e for e, d in stored.items() if len(d) == size)
        row, n = hashed_bytes(lambda: client.engine.get(entry_id, fetch_data=True, verify=False))
        assert not row.verified and row.data == stored[entry_id]
        assert n == len(row.data)

    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_record_without_data_hash_checks_every_leaf(self, site, size):
        _, client, stored = site
        entry_id = next(e for e, d in stored.items() if len(d) == size)
        record = {k: v for k, v in client.engine.get(entry_id).record.items() if k != "data_hash"}
        (data, verified), n = hashed_bytes(lambda: client.engine.fetch_payload_verified(record))
        assert not verified and data == stored[entry_id]
        assert n == len(data)

    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_remote_read_hashes_in_bitswap_and_against_data_hash(self, size):
        framework, client = make_site()
        data = payload(size, b"remote-")
        cid = framework.ipfs.add(data, node="ipfs-1").cid
        record = {
            "entry_id": "remote",
            "cid": cid.encode(),
            "data_hash": hashlib.sha256(data).hexdigest(),
        }
        assert not framework.ipfs.node("ipfs-0").has_local(cid)
        # Bitswap also checks the one interior DAG node a multi-chunk file has.
        interior = 0 if size == SMALL else len(framework.ipfs.node("ipfs-1").blockstore.get(cid))
        (got, verified), n = hashed_bytes(lambda: client.engine.fetch_payload_verified(record))
        assert verified and got == data
        assert n == 2 * len(data) + interior

    @pytest.mark.parametrize("verify_leaves", [True, False])
    def test_rotted_leaf_is_caught_either_way(self, verify_leaves):
        framework, _ = make_site()
        data = payload(LARGE, b"rot-")
        cid = framework.ipfs.add(data).cid
        node = framework.ipfs.node("ipfs-0")
        leaf = node.unixfs.leaf_cids(cid)[1]
        node.blockstore.corrupt(leaf, b"rotten")
        if verify_leaves:
            with pytest.raises(DagError):
                node.cat_local(cid)
        else:  # the caller's whole-payload check is what must notice
            assert node.cat_local(cid, verify_leaves=False) != data


class TestRotUnderRetrieve:
    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_rotted_leaf_is_quarantined_and_refetched_once(self, size):
        set_registry(MetricsRegistry())
        framework, client = make_site()
        data = payload(size, b"rotting-")
        receipt = client.submit(data, dict(META))
        cid = CID.parse(receipt.cid)
        cluster = framework.ipfs
        reader, replica = cluster.node("ipfs-0"), cluster.node("ipfs-1")
        replica.cat(cid, providers=["ipfs-0"])  # a clean copy elsewhere
        reader.blockstore.corrupt(reader.unixfs.leaf_cids(cid)[-1], b"bit rot")
        result = client.retrieve(receipt.entry_id)
        counters = get_registry().snapshot()["counters"]
        assert result.verified and not result.degraded and result.data == data
        assert counters.get("integrity_refetch_total", 0) == 1
        assert counters.get("ipfs_quarantined_blocks_total", 0) == 1


class TestPointReadParity:
    """SAN309 covers ``get``: the state-route record must equal a fresh
    ``get_data`` answer from the same peer."""

    @pytest.fixture
    def sanitized(self):
        import repro.analysis.runtime as runtime

        framework, client = make_site(sanitize="index")
        try:
            yield framework, client
        finally:
            runtime._ACTIVE = None

    def test_clean_point_reads_are_checked(self, sanitized):
        framework, client = sanitized
        receipt = client.submit(b"parity", dict(META))
        checks = framework.sanitizer.report().checks["index"]
        client.engine.get(receipt.entry_id)
        client.retrieve(receipt.entry_id)
        report = framework.sanitizer.finalize()
        assert report.checks["index"] == checks + 2
        assert report.ok, report.render()

    def test_a_caller_changing_a_shared_record_is_flagged(self, sanitized):
        framework, client = sanitized
        receipt = client.submit(b"parity", dict(META))
        row = client.engine.get(receipt.entry_id)
        assert framework.sanitizer.report().ok
        row.record["data_hash"] = "0" * 64
        assert client.engine.get(receipt.entry_id).record is row.record
        report = framework.sanitizer.finalize()
        assert [f.rule_id for f in report.findings] == ["SAN309"]
        assert "get " in report.findings[0].message
