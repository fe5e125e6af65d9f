"""The Fig. 6 read path costs one world-state read and one hash per block.

``QueryEngine.get`` reads the reference peer's world state (no signed
proposal), with the chaincode's ``get_data`` as fallback and oracle; the
record's CID is the one on-chain commitment, and every read hashes each block
under it — root, interior nodes, leaves — once against the CID that names it.
"""

import json

import pytest

from repro import obs
from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.core.archive import export_bundle, import_bundle
from repro.crypto.cid import CID
from repro.errors import ChaincodeError, DagError
from repro.ipfs.dag import DagNode
from repro.ipfs.replication import ReplicationManager
from repro.ipfs.unixfs import UnixFS
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.trust import SourceTier
from repro.util.rng import rng_for
from repro.workloads.traffic import IngestItem
from tests.ipfs_helpers import block_bytes as stored_block_bytes
from tests.ipfs_helpers import leaf_cids

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


def block_bytes(framework, cid: str, node: str = "ipfs-0") -> int:
    """Bytes of every block under ``cid``: its leaves and interior nodes."""
    return stored_block_bytes(framework.ipfs.node(node).blockstore, CID.parse(cid))


def hashed_bytes(call, center: str = "crypto."):
    """(result, bytes hashed under the cost centers ``center`` starts, by
    default every ``crypto.*`` one) of ``call()``."""
    with obs.profiling() as profiler:
        result = call()
    n = sum(s.n_bytes for s in profiler.center_stats() if s.center.startswith(center))
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
        framework, client, stored = site
        entry_id = next(e for e, d in stored.items() if len(d) == size)
        row, n = hashed_bytes(lambda: client.engine.get(entry_id, fetch_data=True))
        assert row.verified and row.data == stored[entry_id]
        assert n == block_bytes(framework, row.record["cid"])

    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_bare_cid_read_checks_every_leaf(self, site, size):
        framework, _, stored = site
        data = next(d for d in stored.values() if len(d) == size)
        cid = framework.ipfs.add(data).cid  # already stored: the same blocks
        got, n = hashed_bytes(lambda: framework.ipfs.cat(cid))
        assert got == data and n == block_bytes(framework, cid.encode())

    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_a_remote_block_is_hashed_once(self, size):
        """In bitswap as it arrives, before it is stored; the read's walk
        takes the fetched bytes without hashing them again."""
        framework, client = make_site()
        data = payload(size, b"remote-")
        cid = framework.ipfs.add(data, node="ipfs-1").cid
        record = {"entry_id": "remote", "cid": cid.encode()}
        assert not framework.ipfs.node("ipfs-0").blockstore.has(cid)
        (got, verified), n = hashed_bytes(lambda: client.engine.fetch_payload_verified(record))
        assert verified and got == data
        assert n == block_bytes(framework, cid.encode(), node="ipfs-1")

    def test_a_partial_local_copy_is_read_in_one_walk(self):
        """The local blocks are hashed as they are taken and the missing
        one as it arrives: the read does not start over from the root."""
        framework, _ = make_site()
        cluster = framework.ipfs
        data = rng_for(1, "partial").bytes(LARGE)
        cid = cluster.add(data, node="ipfs-1").cid
        assert cluster.cat(cid, node="ipfs-0") == data
        local = cluster.node("ipfs-0").blockstore
        local.delete(leaf_cids(local, cid)[2])
        got, n = hashed_bytes(lambda: cluster.cat(cid, node="ipfs-0"))
        assert got == data and n == block_bytes(framework, cid.encode())

    def test_a_replica_is_copied_in_one_walk(self):
        framework, _ = make_site()
        cluster = framework.ipfs
        cid = cluster.add(rng_for(2, "replica").bytes(LARGE), node="ipfs-0").cid
        manager = ReplicationManager(cluster, replication_factor=2)
        status, n = hashed_bytes(lambda: manager.replicate(cid))
        assert status.holders == ["ipfs-0", "ipfs-1"]
        assert n == block_bytes(framework, cid.encode())

    def test_a_bundle_import_hashes_each_block_once(self):
        """Each CAR section is hashed as the import's walk takes it, and
        that walk is the completeness check: no second read."""
        framework, client = make_site()
        receipt = client.submit(rng_for(3, "bundle").bytes(LARGE), dict(META))
        raw = export_bundle(client, f"entry_id = '{receipt.entry_id}'")
        (bundle, _), n = hashed_bytes(lambda: import_bundle(raw), "crypto.hash")
        assert [e.entry_id for e in bundle.entries] == [receipt.entry_id]
        assert n == block_bytes(framework, receipt.cid)

    def test_a_bundle_export_fetches_what_its_node_lacks(self):
        """The export walks as a read does: the staging node's blocks are
        hashed as they are taken, and a missing one comes from a node that
        holds the file, checked as it arrives."""
        framework, client = make_site()
        data = rng_for(4, "bundle").bytes(LARGE)
        receipt = client.submit(data, dict(META))
        cid = CID.parse(receipt.cid)
        expected = block_bytes(framework, receipt.cid)
        framework.ipfs.cat(cid, node="ipfs-1")  # a second copy
        staging = framework.ipfs.node("ipfs-0").blockstore
        staging.delete(leaf_cids(staging, cid)[1])
        query = f"entry_id = '{receipt.entry_id}'"
        raw, n = hashed_bytes(lambda: export_bundle(client, query), "crypto.hash")
        assert n == expected
        _, store = import_bundle(raw)
        assert UnixFS(store).read_file(cid) == data

    def test_a_rotted_local_block_is_read_once(self):
        """Only a missing block sends a read to the providers: a local block
        that fails its hash raises from the one local walk."""
        set_registry(MetricsRegistry())
        framework, _ = make_site()
        cid = framework.ipfs.add(payload(LARGE, b"rot-")).cid
        node = framework.ipfs.node("ipfs-0")
        assert len(leaf_cids(node.blockstore, cid)) == 4
        node.blockstore.corrupt(leaf_cids(node.blockstore, cid)[2], b"rotten")
        with obs.profiling() as profiler:
            with pytest.raises(DagError, match="failed verification"):
                framework.ipfs.cat(cid)
        reads = sum(s.calls for s in profiler.center_stats() if s.center == "ipfs.read")
        assert reads == 1
        assert "ipfs_partial_local_total" not in get_registry().snapshot()["counters"]

    @pytest.mark.parametrize("block", ["leaf", "interior"])
    def test_a_rotted_block_is_caught(self, block):
        framework, _ = make_site()
        data = payload(LARGE, b"rot-")
        cid = framework.ipfs.add(data).cid
        node = framework.ipfs.node("ipfs-0")
        target = leaf_cids(node.blockstore, cid)[1] if block == "leaf" else cid
        node.blockstore.corrupt(target, b"rotten")
        with pytest.raises(DagError, match="failed verification"):
            node.unixfs.read_file(cid)


class TestADoctoredInteriorNode:
    """Another file's valid DAG node stored under the root's CID names only
    valid leaves: a read that checked leaves alone would return the other
    file's bytes. Every read hashes the root against its CID first."""

    @staticmethod
    def doctored(framework, cid):
        """Store another file's root node under ``cid`` on ``ipfs-0``."""
        node = framework.ipfs.node("ipfs-0")
        theirs = payload(LARGE, b"theirs-")
        other = framework.ipfs.add(theirs).cid
        node.blockstore.corrupt(cid, node.blockstore.get(other))
        # The forged node is well formed, and its leaves all verify.
        forged = DagNode.deserialize(node.blockstore.get(cid))
        leaves = [node.blockstore.get(link.cid) for link in forged.links]
        assert all(link.cid.verifies(leaf) for link, leaf in zip(forged.links, leaves))
        assert b"".join(leaves) == theirs

    def test_every_read_refuses_it(self):
        framework, client = make_site()
        cid = framework.ipfs.add(payload(LARGE, b"mine-")).cid
        self.doctored(framework, cid)
        with pytest.raises(DagError, match="failed verification"):
            framework.ipfs.node("ipfs-0").unixfs.read_file(cid)
        with pytest.raises(DagError, match="failed verification"):
            framework.ipfs.cat(cid)
        with pytest.raises(DagError, match="failed verification"):
            client.engine.fetch_payload_verified({"entry_id": "x", "cid": cid.encode()})

    def test_a_retrieve_never_reads_it_back_verified(self):
        set_registry(MetricsRegistry())
        framework, client = make_site()
        receipt = client.submit(payload(LARGE, b"mine-"), dict(META))
        self.doctored(framework, CID.parse(receipt.cid))
        result = client.retrieve(receipt.entry_id)
        # Quarantined, and no clean copy is left anywhere: metadata only.
        assert (result.data, result.verified, result.degraded) == (b"", False, True)
        assert get_registry().snapshot()["counters"]["ipfs_quarantined_blocks_total"] == 1


def store_entry(framework, client, path, data):
    """One entry through ``Client.submit`` or ``BatchIngestor.ingest``."""
    if path == "submit":
        receipt = client.submit(data, dict(META))
        assert receipt.ok
        return receipt.entry_id
    ingestor = BatchIngestor(framework)
    ingestor.register(client.identity)
    (entry_id,) = ingestor.ingest([IngestItem("rp-cam", data, dict(META), None)]).entry_ids
    return entry_id


HUGE = 2 << 20  # 32 chunks under one interior node
HEAL_CASES = [
    (path, size, block)
    for path in ("submit", "ingest")
    for size in (SMALL, LARGE, HUGE)
    for block in (("leaf",) if size == SMALL else ("leaf", "interior"))
]


class TestRotUnderRetrieve:
    @pytest.mark.parametrize("size", [SMALL, LARGE])
    def test_rotted_leaf_is_quarantined_and_refetched_once(self, size):
        set_registry(MetricsRegistry())
        framework, client = make_site()
        data = payload(size, b"rotting-")
        receipt = client.submit(data, dict(META))
        cid = CID.parse(receipt.cid)
        cluster = framework.ipfs
        reader = cluster.node("ipfs-0")
        cluster.cat(cid, node="ipfs-1")  # a clean copy elsewhere
        reader.blockstore.corrupt(leaf_cids(reader.blockstore, cid)[-1], b"bit rot")
        result = client.retrieve(receipt.entry_id)
        counters = get_registry().snapshot()["counters"]
        assert result.verified and not result.degraded and result.data == data
        assert counters.get("integrity_refetch_total", 0) == 1
        assert counters.get("ipfs_quarantined_blocks_total", 0) == 1

    @pytest.mark.parametrize(
        "path,size,block", HEAL_CASES,
        ids=[f"{path}-{size // 1024}KiB-{block}" for path, size, block in HEAL_CASES],
    )
    def test_a_stored_entry_reads_back_verified_and_a_rotted_block_heals_once(
        self, path, size, block
    ):
        set_registry(MetricsRegistry())
        framework, client = make_site()
        data = payload(size, f"{path}-{block}-".encode())
        entry_id = store_entry(framework, client, path, data)
        first = client.retrieve(entry_id)
        assert first.verified and first.data == data
        cid = CID.parse(first.record["cid"])
        reader = framework.ipfs.node("ipfs-0")
        framework.ipfs.cat(cid, node="ipfs-1")  # a clean copy elsewhere
        target = cid if block == "interior" else leaf_cids(reader.blockstore, cid)[-1]
        reader.blockstore.corrupt(target, b"bit rot")
        result = client.retrieve(entry_id)
        counters = get_registry().snapshot()["counters"]
        assert result.verified and not result.degraded and result.data == data
        assert counters.get("integrity_refetch_total", 0) == 1
        assert counters.get("ipfs_quarantined_blocks_total", 0) == 1


class TestPointReadParity:
    """SAN309 covers ``get``: the state-route record must equal a fresh
    ``get_data`` answer from the same peer."""

    @pytest.fixture
    def sanitized(self):
        return make_site(sanitize="index")

    def test_clean_point_reads_are_checked(self, sanitized):
        framework, client = sanitized
        receipt = client.submit(b"parity", dict(META))
        checks = framework.sanitizer.report().checks["index"]
        client.engine.get(receipt.entry_id)
        client.retrieve(receipt.entry_id)
        assert framework.sanitizer.report().checks["index"] == checks + 2
        report = framework.sanitizer.finalize()
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
