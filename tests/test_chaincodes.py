"""Tests for the paper's chaincodes, run through a real channel."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChaincodeError
from repro.chaincodes import (
    AdminEnrollmentChaincode,
    DataRetrievalChaincode,
    DataUploadChaincode,
    ProvenanceChaincode,
    TrustScoreChaincode,
    UserRegistrationChaincode,
)
from repro.fabric import FabricNetwork, Role
from repro.ipfs import IpfsCluster
from repro.fabric.worldstate import composite_prefix_range
from repro.query import QueryEngine
from repro.util.serialization import canonical_json


@pytest.fixture()
def env():
    return make_env()


def make_env():
    net = FabricNetwork()
    channel = net.create_channel("traffic", orgs=["org1", "org2"])
    for cc in (
        AdminEnrollmentChaincode(),
        UserRegistrationChaincode(),
        DataUploadChaincode(),
        DataRetrievalChaincode(),
        ProvenanceChaincode(),
        TrustScoreChaincode(),
    ):
        channel.install_chaincode(cc)
    client = net.register_identity("client", "org1", role=Role.CLIENT)
    return net, channel, client


def q(channel, client, cc, fn, args):
    return json.loads(channel.query(client, cc, fn, args))


def scan(channel, client, text):
    engine = QueryEngine(channel=channel, cluster=IpfsCluster(n_nodes=1), identity=client)
    return engine.scan(text)


class TestAdminEnrollment:
    def test_enroll_and_get(self, env):
        _, channel, client = env
        result = channel.invoke(client, "admin_enrollment", "enroll_admin", ["admin-1"])
        assert result.ok
        admin = q(channel, client, "admin_enrollment", "get_admin", ["admin-1"])
        assert admin["role"] == "admin"
        assert admin["enrolled_by"] == "client"
        assert "created_at" in admin

    def test_duplicate_rejected(self, env):
        _, channel, client = env
        channel.invoke(client, "admin_enrollment", "enroll_admin", ["admin-1"])
        with pytest.raises(ChaincodeError, match="already exists"):
            channel.invoke(client, "admin_enrollment", "enroll_admin", ["admin-1"])

    def test_exists(self, env):
        _, channel, client = env
        assert not q(channel, client, "admin_enrollment", "admin_exists", ["a"])
        channel.invoke(client, "admin_enrollment", "enroll_admin", ["a"])
        assert q(channel, client, "admin_enrollment", "admin_exists", ["a"])

    def test_revoke_requires_acting_admin(self, env):
        _, channel, client = env
        channel.invoke(client, "admin_enrollment", "enroll_admin", ["a"])
        with pytest.raises(ChaincodeError, match="not an admin"):
            channel.invoke(client, "admin_enrollment", "revoke_admin", ["a", "stranger"])

    def test_revoke_not_self(self, env):
        _, channel, client = env
        channel.invoke(client, "admin_enrollment", "enroll_admin", ["a"])
        with pytest.raises(ChaincodeError, match="cannot revoke themselves"):
            channel.invoke(client, "admin_enrollment", "revoke_admin", ["a", "a"])

    def test_revoke_flow(self, env):
        _, channel, client = env
        channel.invoke(client, "admin_enrollment", "enroll_admin", ["a"])
        channel.invoke(client, "admin_enrollment", "enroll_admin", ["b"])
        channel.invoke(client, "admin_enrollment", "revoke_admin", ["b", "a"])
        assert not q(channel, client, "admin_enrollment", "admin_exists", ["b"])
        admins = q(channel, client, "admin_enrollment", "list_admins", [])
        assert [a["admin_id"] for a in admins] == ["a"]

    def test_empty_id_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError):
            channel.invoke(client, "admin_enrollment", "enroll_admin", [""])


class TestUserRegistration:
    KEY = "ab" * 32

    def test_register_and_get(self, env):
        _, channel, client = env
        channel.invoke(
            client, "user_registration", "register_user",
            ["cam-1", "city", "trusted", self.KEY],
        )
        user = q(channel, client, "user_registration", "get_user", ["cam-1"])
        assert user["tier"] == "trusted"
        assert user["active"] is True

    def test_duplicate_rejected(self, env):
        _, channel, client = env
        channel.invoke(client, "user_registration", "register_user", ["u", "o", "untrusted", self.KEY])
        with pytest.raises(ChaincodeError, match="already registered"):
            channel.invoke(client, "user_registration", "register_user", ["u", "o", "untrusted", self.KEY])

    def test_bad_tier_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="tier"):
            channel.invoke(client, "user_registration", "register_user", ["u", "o", "vip", self.KEY])

    def test_bad_key_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="public key"):
            channel.invoke(client, "user_registration", "register_user", ["u", "o", "trusted", "short"])

    def test_deactivate(self, env):
        _, channel, client = env
        channel.invoke(client, "user_registration", "register_user", ["u", "o", "untrusted", self.KEY])
        assert q(channel, client, "user_registration", "is_active", ["u"])
        channel.invoke(client, "user_registration", "deactivate_user", ["u"])
        assert not q(channel, client, "user_registration", "is_active", ["u"])

    def test_list_by_tier(self, env):
        _, channel, client = env
        channel.invoke(client, "user_registration", "register_user", ["cam", "o", "trusted", self.KEY])
        channel.invoke(client, "user_registration", "register_user", ["mob", "o", "untrusted", self.KEY])
        trusted = q(channel, client, "user_registration", "list_users", ["trusted"])
        assert [u["user_id"] for u in trusted] == ["cam"]
        everyone = q(channel, client, "user_registration", "list_users", [""])
        assert len(everyone) == 2


META = {
    "source_id": "cam-7",
    "camera_id": "cam-7",
    "timestamp": 1000.0,
    "location": {"lat": 12.97, "lon": 77.59},
    "detections": [
        {"vehicle_class": "car", "confidence": 0.93},
        {"vehicle_class": "truck", "confidence": 0.88},
    ],
}


def upload(channel, client, cid="bafyfake", data_hash="0" * 64, meta=None):
    result = channel.invoke(
        client, "data_upload", "add_data",
        [cid, data_hash, json.dumps(meta or META)],
    )
    return json.loads(result.response)["entry_id"]


class TestDataUploadRetrieval:
    def test_upload_and_get(self, env):
        _, channel, client = env
        entry_id = upload(channel, client)
        record = q(channel, client, "data_retrieval", "get_data", [entry_id])
        assert record["cid"] == "bafyfake"
        assert record["metadata"]["camera_id"] == "cam-7"
        assert record["source_id"] == "cam-7"

    def test_get_cid(self, env):
        _, channel, client = env
        entry_id = upload(channel, client, cid="bafyXYZ")
        assert q(channel, client, "data_retrieval", "get_cid", [entry_id]) == "bafyXYZ"

    def test_missing_entry_raises_paper_message(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="No metadata found for transaction ID"):
            channel.query(client, "data_retrieval", "get_data", ["ghost"])

    def test_invalid_metadata_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="not valid JSON"):
            channel.invoke(client, "data_upload", "add_data", ["cid", "0" * 64, "{bad"])
        with pytest.raises(ChaincodeError, match="JSON object"):
            channel.invoke(client, "data_upload", "add_data", ["cid", "0" * 64, "[1]"])

    def test_bad_hash_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="sha-256"):
            channel.invoke(client, "data_upload", "add_data", ["cid", "zz", "{}"])

    # The contracts keep no secondary index: a "list by" is the retrieval
    # contract's list_all full scan filtered by the query (QueryEngine.scan).

    def test_list_by_source(self, env):
        _, channel, client = env
        upload(channel, client)
        other = dict(META, source_id="mobile-3", camera_id="")
        upload(channel, client, meta=other)
        everything = q(channel, client, "data_retrieval", "list_all", [])
        assert [r["entry_id"] for r in everything] == sorted(r["entry_id"] for r in everything)
        records = scan(channel, client, "source_id = 'cam-7'")
        assert len(records) == 1
        assert records[0]["source_id"] == "cam-7"

    def test_list_by_camera(self, env):
        _, channel, client = env
        upload(channel, client)
        records = scan(channel, client, "metadata.camera_id = 'cam-7'")
        assert len(records) == 1

    def test_list_by_vehicle_class(self, env):
        _, channel, client = env
        upload(channel, client)
        no_truck = dict(META, detections=[{"vehicle_class": "car", "confidence": 0.9}])
        upload(channel, client, meta=no_truck)
        trucks = scan(channel, client, "vehicle_class = 'truck'")
        cars = scan(channel, client, "vehicle_class = 'car'")
        assert len(trucks) == 1
        assert len(cars) == 2

    def test_list_by_time_range(self, env):
        _, channel, client = env
        upload(channel, client, meta=dict(META, timestamp=100.0))
        upload(channel, client, meta=dict(META, timestamp=5000.0))
        upload(channel, client, meta=dict(META, timestamp=90000.0))
        hits = scan(channel, client, "metadata.timestamp >= 0 AND metadata.timestamp < 6000")
        assert sorted(r["metadata"]["timestamp"] for r in hits) == [100.0, 5000.0]

    def test_time_range_validation(self, env):
        _, channel, client = env
        upload(channel, client, meta=dict(META, timestamp=50.0))
        assert scan(channel, client, "metadata.timestamp >= 100 AND metadata.timestamp < 0") == []


class TestAtomicStore:
    """``data_upload.store``: record + captured → stored trail, one rwset."""

    def test_store_writes_record_and_trail_in_one_transaction(self, env):
        _, channel, client = env
        height = channel.height()
        result = channel.invoke(
            client, "data_upload", "store", ["bafyfake", "ab" * 32, json.dumps(META)]
        )
        assert result.ok and channel.height() == height + 1
        entry_id = json.loads(result.response)["entry_id"]
        assert entry_id == result.tx_id
        assert q(channel, client, "data_retrieval", "get_cid", [entry_id]) == "bafyfake"
        chain = q(channel, client, "provenance", "lineage", [entry_id])
        assert [(e["action"], e["actor"], e["details"]) for e in chain] == [
            ("captured", "client", {"data_hash": "ab" * 32}),
            ("stored", "client", {"cid": "bafyfake"}),
        ]
        assert {e["tx_id"] for e in chain} == {result.tx_id}
        assert q(channel, client, "provenance", "verify", [entry_id])["length"] == 2

    def test_failure_in_the_nested_record_leaves_nothing(self, env, monkeypatch):
        _, channel, client = env
        original = ProvenanceChaincode.record

        def stored_fails(self, stub, entry_id, action, actor, details_json="{}"):
            if action == "stored":
                raise ChaincodeError("lineage store unavailable")
            return original(self, stub, entry_id, action, actor, details_json)

        monkeypatch.setattr(ProvenanceChaincode, "record", stored_fails)
        before = {name: peer.world.keys() for name, peer in channel.peers.items()}
        with pytest.raises(ChaincodeError, match="lineage store unavailable"):
            channel.invoke(
                client, "data_upload", "store", ["bafyfake", "ab" * 32, json.dumps(META)]
            )
        # add_data and the captured event had already been simulated when
        # the stored event raised; none of it may reach any peer's state.
        assert {name: peer.world.keys() for name, peer in channel.peers.items()} == before
        assert not any(
            key.startswith(("data:", "provhead:")) or "prov" in key
            for keys in before.values()
            for key in keys
        )


_KEYS = st.sampled_from(["entry_id", "entry_hash", "details", "x", '",\\"entry_id\\":', "é"])
_DETAILS = st.dictionaries(
    _KEYS,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8) | _KEYS,
        lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_KEYS, inner, max_size=2),
        max_leaves=6,
    ),
    max_size=3,
)


class TestProvenance:
    def test_record_and_lineage(self, env):
        _, channel, client = env
        for action in ("captured", "validated", "stored"):
            channel.invoke(
                client, "provenance", "record", ["entry-1", action, "cam-7", "{}"]
            )
        chain = q(channel, client, "provenance", "lineage", ["entry-1"])
        assert [e["action"] for e in chain] == ["captured", "validated", "stored"]
        assert [e["seq"] for e in chain] == [0, 1, 2]

    def test_chain_links(self, env):
        _, channel, client = env
        channel.invoke(client, "provenance", "record", ["e", "captured", "a", "{}"])
        channel.invoke(client, "provenance", "record", ["e", "stored", "a", "{}"])
        chain = q(channel, client, "provenance", "lineage", ["e"])
        assert chain[0]["prev_hash"] == "0" * 64
        assert chain[1]["prev_hash"] == chain[0]["entry_hash"]

    def test_verify_ok(self, env):
        _, channel, client = env
        for action in ("captured", "validated", "stored", "accessed"):
            channel.invoke(client, "provenance", "record", ["e", action, "a", "{}"])
        result = q(channel, client, "provenance", "verify", ["e"])
        assert result["length"] == 4

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_DETAILS, min_size=1, max_size=3))
    def test_each_stored_entry_is_canonical_and_the_chain_verifies(self, details):
        """An entry is rendered once and stored with its hash spliced in;
        details that nest an ``entry_id`` key must not move the splice."""
        _, channel, client = make_env()
        first, *rest = details
        channel.invoke(client, "provenance", "record", ["e", "captured", "a", json.dumps(first)])
        events = [{"entry_id": "e", "action": "stored", "actor": "b", "details": d} for d in rest]
        channel.invoke(client, "provenance", "record_many", [json.dumps(events)])
        peer = next(iter(channel.peers.values()))
        rows = peer.world.range(*composite_prefix_range("prov", ["e"]))
        assert len(rows) == len(details)
        for _, raw in rows:
            assert raw == canonical_json(json.loads(raw))
        assert [json.loads(raw)["details"] for _, raw in rows] == details
        assert q(channel, client, "provenance", "verify", ["e"])["length"] == len(details)

    def test_verify_empty_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="no provenance"):
            channel.query(client, "provenance", "verify", ["nothing"])

    def test_lineages_are_isolated(self, env):
        _, channel, client = env
        channel.invoke(client, "provenance", "record", ["e1", "captured", "a", "{}"])
        channel.invoke(client, "provenance", "record", ["e2", "captured", "b", "{}"])
        assert len(q(channel, client, "provenance", "lineage", ["e1"])) == 1

    def test_details_payload(self, env):
        _, channel, client = env
        channel.invoke(
            client, "provenance", "record",
            ["e", "validated", "bft", json.dumps({"votes": 4})],
        )
        chain = q(channel, client, "provenance", "lineage", ["e"])
        assert chain[0]["details"] == {"votes": 4}


class TestTrustScoreChaincode:
    def test_put_get(self, env):
        _, channel, client = env
        channel.invoke(
            client, "trust_score", "put_score",
            ["mob-1", json.dumps({"score": 0.7, "tier": "untrusted"})],
        )
        record = q(channel, client, "trust_score", "get_score", ["mob-1"])
        assert record["score"] == 0.7
        assert record["source_id"] == "mob-1"

    def test_score_validation(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="in \\[0, 1\\]"):
            channel.invoke(client, "trust_score", "put_score", ["s", json.dumps({"score": 1.5})])
        with pytest.raises(ChaincodeError, match="'score' field"):
            channel.invoke(client, "trust_score", "put_score", ["s", json.dumps({})])

    def test_history_trajectory(self, env):
        _, channel, client = env
        for score in (0.5, 0.6, 0.72):
            channel.invoke(client, "trust_score", "put_score", ["s", json.dumps({"score": score})])
        history = q(channel, client, "trust_score", "score_history", ["s"])
        assert [h["score"] for h in history] == [0.5, 0.6, 0.72]

    def test_validator_flag_and_remove(self, env):
        _, channel, client = env
        channel.invoke(client, "trust_score", "flag_validator", ["v3", "endorsed invalid tx"])
        channel.invoke(client, "trust_score", "flag_validator", ["v3", "again"])
        record = q(channel, client, "trust_score", "get_validator", ["v3"])
        assert record["flags"] == 2
        channel.invoke(client, "trust_score", "remove_validator", ["v3", "repeated misbehaviour"])
        record = q(channel, client, "trust_score", "get_validator", ["v3"])
        assert record["removed"] is True

    def test_list_scores(self, env):
        _, channel, client = env
        channel.invoke(client, "trust_score", "put_score", ["a", json.dumps({"score": 0.2})])
        channel.invoke(client, "trust_score", "put_score", ["b", json.dumps({"score": 0.9})])
        scores = q(channel, client, "trust_score", "list_scores", [])
        assert {s["source_id"] for s in scores} == {"a", "b"}
