"""Tests for the paper's chaincodes, run through a real channel."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cid import CID
from repro.errors import ChaincodeError, EncodingError
from repro.chaincodes import (
    AdminEnrollmentChaincode,
    DataRetrievalChaincode,
    DataUploadChaincode,
    ProvenanceChaincode,
    TrustScoreChaincode,
    UserRegistrationChaincode,
)
from repro.fabric import ChaincodeStub, FabricNetwork, Role
from repro.ipfs import IpfsCluster
from repro.fabric.worldstate import composite_prefix_range
from repro.query import QueryEngine
from repro.util.serialization import canonical_json

from tests import serialization_oracle as oracle


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


PAYLOAD = b"chaincode test payload"
CID_A = CID.for_data(PAYLOAD).encode()
CID_B = CID.for_data(b"another payload").encode()


def upload(channel, client, cid=CID_A, meta=None):
    result = channel.invoke(
        client, "data_upload", "store", [cid, json.dumps(meta or META)],
    )
    return json.loads(result.response)["entry_id"]


class TestDataUploadRetrieval:
    def test_upload_and_get(self, env):
        _, channel, client = env
        entry_id = upload(channel, client)
        record = q(channel, client, "data_retrieval", "get_data", [entry_id])
        assert record["cid"] == CID_A
        assert "data_hash" not in record  # the CID is the one commitment
        assert record["metadata"]["camera_id"] == "cam-7"
        assert record["source_id"] == "cam-7"

    def test_get_cid(self, env):
        _, channel, client = env
        entry_id = upload(channel, client, cid=CID_B)
        assert q(channel, client, "data_retrieval", "get_cid", [entry_id]) == CID_B

    def test_missing_entry_raises_paper_message(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="No metadata found for transaction ID"):
            channel.query(client, "data_retrieval", "get_data", ["ghost"])

    def test_invalid_metadata_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="not valid JSON"):
            channel.invoke(client, "data_upload", "store", [CID_A, "{bad"])
        with pytest.raises(ChaincodeError, match="JSON object"):
            channel.invoke(client, "data_upload", "store", [CID_A, "[1]"])

    def test_bad_cid_rejected(self, env):
        _, channel, client = env
        height = channel.height()
        for cid in ("", "cid", "bafyfake", CID_A[:-2], "Qm" + "1" * 44):
            with pytest.raises(ChaincodeError, match="is not a CID"):
                channel.invoke(client, "data_upload", "store", [cid, "{}"])
        assert channel.height() == height

    def test_a_cidv0_string_is_refused(self, env):
        """A well-formed CIDv0 names no block this system can hold."""
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="is not a CID"):
            channel.invoke(
                client, "data_upload", "store", ["QmTHEvCQrzxR7vFXmeyCptGYWddfamfc11W7UuziDtrw25", "{}"]
            )

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
    """``data_upload.store``: the record is the store's one write, and its
    ``captured`` → ``stored`` events are read from it."""

    def test_store_writes_record_and_trail_in_one_transaction(self, env):
        _, channel, client = env
        height = channel.height()
        result = channel.invoke(client, "data_upload", "store", [CID_A, json.dumps(META)])
        assert result.ok and channel.height() == height + 1
        entry_id = json.loads(result.response)["entry_id"]
        assert entry_id == result.tx_id
        assert q(channel, client, "data_retrieval", "get_cid", [entry_id]) == CID_A
        chain = q(channel, client, "provenance", "lineage", [entry_id])
        # ``captured`` carries the CID's digest: for a raw one-chunk CID,
        # the payload's sha-256.
        assert [(e["action"], e["actor"], e["details"]) for e in chain] == [
            ("captured", "client", {"data_hash": hashlib.sha256(PAYLOAD).hexdigest()}),
            ("stored", "client", {"cid": CID_A}),
        ]
        assert {e["tx_id"] for e in chain} == {result.tx_id}
        assert q(channel, client, "provenance", "verify", [entry_id])["length"] == 2

    @pytest.mark.parametrize(
        "args,match",
        [
            ([CID_A, "{bad"], "not valid JSON"),
            (["", "{}"], "is not a CID"),
            (None, "already exists"),
        ],
        ids=["bad-json", "no-cid", "duplicate"],
    )
    def test_a_store_that_raises_leaves_nothing(self, env, monkeypatch, args, match):
        _, channel, client = env
        if args is None:
            # A second store under an existing entry's tx id: the one
            # function refuses it after reading the record it would clobber.
            existing = upload(channel, client)
            monkeypatch.setattr(ChaincodeStub, "get_tx_id", lambda stub: existing)
            args = [CID_B, json.dumps(META)]
        before = {name: dict(peer.world.range()) for name, peer in channel.peers.items()}
        height = channel.height()
        with pytest.raises(ChaincodeError, match=match):
            channel.invoke(client, "data_upload", "store", args)
        assert {name: dict(peer.world.range()) for name, peer in channel.peers.items()} == before
        assert channel.height() == height


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


def record(channel, client, entry_id, action, actor, details=None):
    """One event, appended through ``record_many`` in a transaction of its own."""
    event = {"entry_id": entry_id, "action": action, "actor": actor, "details": details or {}}
    return channel.invoke(client, "provenance", "record_many", [json.dumps([event])])


class TestProvenance:
    def test_record_and_lineage(self, env):
        _, channel, client = env
        for action in ("captured", "validated", "stored"):
            record(channel, client, "entry-1", action, "cam-7")
        chain = q(channel, client, "provenance", "lineage", ["entry-1"])
        assert [e["action"] for e in chain] == ["captured", "validated", "stored"]
        assert [e["seq"] for e in chain] == [0, 1, 2]

    def test_chain_links(self, env):
        _, channel, client = env
        record(channel, client, "e", "captured", "a")
        record(channel, client, "e", "stored", "a")
        chain = q(channel, client, "provenance", "lineage", ["e"])
        assert chain[0]["prev_hash"] == "0" * 64
        assert chain[1]["prev_hash"] == chain[0]["entry_hash"]

    def test_verify_ok(self, env):
        _, channel, client = env
        for action in ("captured", "validated", "stored", "accessed"):
            record(channel, client, "e", action, "a")
        result = q(channel, client, "provenance", "verify", ["e"])
        assert result["length"] == 4

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_DETAILS, min_size=1, max_size=3))
    def test_each_stored_entry_is_canonical_and_the_chain_verifies(self, details):
        """An entry is rendered once and stored with its hash spliced in;
        details that nest an ``entry_id`` key must not move the splice.
        Details holding an int beyond 64 bits are refused, as NaN is."""
        _, channel, client = make_env()
        first, *rest = details
        events = [{"entry_id": "e", "action": "stored", "actor": "b", "details": d} for d in rest]
        if "int" in oracle.changes(details):
            with pytest.raises(EncodingError, match="64-bit"):
                record(channel, client, "e", "captured", "a", first)
                channel.invoke(client, "provenance", "record_many", [json.dumps(events)])
            return
        record(channel, client, "e", "captured", "a", first)
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
        record(channel, client, "e1", "captured", "a")
        record(channel, client, "e2", "captured", "b")
        assert len(q(channel, client, "provenance", "lineage", ["e1"])) == 1

    def test_details_payload(self, env):
        _, channel, client = env
        record(channel, client, "e", "validated", "bft", {"votes": 4})
        chain = q(channel, client, "provenance", "lineage", ["e"])
        assert chain[0]["details"] == {"votes": 4}

    def test_bad_events_are_rejected(self, env):
        _, channel, client = env
        with pytest.raises(ChaincodeError, match="not valid JSON"):
            channel.invoke(client, "provenance", "record_many", ["{bad"])
        with pytest.raises(ChaincodeError, match="list of objects"):
            channel.invoke(client, "provenance", "record_many", ['[1]'])
        with pytest.raises(ChaincodeError, match="entry_id and action are required"):
            channel.invoke(client, "provenance", "record_many", ['[{"action": "x"}]'])

    def test_the_first_written_event_chains_on_the_records_stored_event(self, env):
        _, channel, client = env
        entry_id = upload(channel, client)
        record(channel, client, entry_id, "accessed", "reader")
        chain = q(channel, client, "provenance", "lineage", [entry_id])
        assert [(e["seq"], e["action"]) for e in chain] == [
            (0, "captured"), (1, "stored"), (2, "accessed"),
        ]
        assert chain[2]["prev_hash"] == chain[1]["entry_hash"]
        peer = next(iter(channel.peers.values()))
        rows = peer.world.range(*composite_prefix_range("prov", [entry_id]))
        assert [json.loads(raw)["seq"] for _, raw in rows] == [2]
        assert q(channel, client, "provenance", "verify", [entry_id]) == {
            "entry_id": entry_id, "length": 3, "head": chain[2]["entry_hash"],
        }


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
