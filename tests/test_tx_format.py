"""A transaction carries each fact once: a written value travels as its UTF-8
text (a tagged base64 object only for bytes that are not UTF-8) through the
rwset, the envelope, the WAL and the snapshot lines; the WAL's transaction
document is the envelope; and a store emits no event restating its writes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.merkle import merkle_root
from repro.errors import EncodingError
from repro.fabric import Chaincode, ChaincodeStub
from repro.fabric.snapshot import Snapshot, state_digest, take_snapshot
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.storage import CORRUPT, DurabilityManager
from repro.storage.codec import block_from_doc
from repro.storage.persistence import WAL_LOG
from repro.trust import SourceTier
from repro.util.serialization import (
    canonical_json,
    from_canonical_json,
    value_from_json,
    value_to_json,
)

from tests.fabric_helpers import make_network

_VALUES = (
    st.binary(max_size=24)
    | st.text(
        st.sampled_from('"\\/\x00\x1f\n\t\x7fé日 ')
        | st.characters(exclude_categories=("Cs",)),
        max_size=12,
    ).map(str.encode)
    # Empty, a lone quote and backslash, bytes that are not UTF-8, and an
    # encoded surrogate (which strict UTF-8 refuses).
    | st.sampled_from([b"", b'"', b"\\", b"\xff\xfe", b"\xed\xa0\x80", b"ok\x80"])
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


class RawChaincode(Chaincode):
    """Writes arbitrary bytes: the argument is their hex."""

    name = "raw"

    def put(self, stub: ChaincodeStub, key: str, value_hex: str):
        stub.put_state(key, bytes.fromhex(value_hex))
        return {"key": key}


def _is_utf8(value: bytes) -> bool:
    try:
        value.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


class TestWrittenValues:
    @given(_VALUES)
    def test_text_or_tagged_base64_round_trips(self, value):
        doc = value_to_json(value)
        assert isinstance(doc, str) is _is_utf8(value)
        if not isinstance(doc, str):
            assert set(doc) == {"base64"}
        assert value_from_json(from_canonical_json(canonical_json(doc))) == value

    @pytest.mark.parametrize(
        "doc",
        ["\ud800", {"base64": "not base64!"}, {"base64": 1}, {"hex": "00"}, 7, None, ["a"]],
    )
    def test_anything_else_is_refused(self, doc):
        with pytest.raises((EncodingError, ValueError)):
            value_from_json(doc)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(_VALUES, min_size=1, max_size=4))
    def test_values_survive_envelope_wal_snapshot_and_recovery(self, values):
        """endorsement -> envelope -> WAL block record -> block_from_doc,
        then snapshot lines and deltas -> bootstrap, on every recovery path;
        the chains verify and every peer ends on one state digest."""
        net, channel, alice = make_network(peers_per_org=2)
        channel.install_chaincode(RawChaincode())
        manager = DurabilityManager(channel, checkpoint_interval=2, wal_sync_every=1)
        for i, value in enumerate(values):
            assert channel.invoke(alice, "raw", "put", [f"k{i}", value.hex()]).ok
        peers = list(channel.peers.values())
        ledger = peers[0].ledger
        writes = [
            w for block in ledger.blocks() for tx in block.transactions for w in tx.rwset.writes
        ]
        assert [w.value for w in writes] == values
        for block in ledger.blocks():
            for tx in block.transactions:
                envelope = tx.envelope_bytes()
                doc = from_canonical_json(envelope)
                assert canonical_json(doc) == envelope
                (write,) = doc["rwset"]["writes"]
                assert write["value"] == value_to_json(tx.rwset.writes[0].value)
        # The WAL's block records decode to the same envelopes and roots.
        records, _ = manager.stores[peers[1].name].read_log(WAL_LOG)
        for payload in records:
            doc = from_canonical_json(payload)
            block = block_from_doc(doc["block"])
            original = ledger.block(block.header.number)
            envelopes = [tx.envelope_bytes() for tx in block.transactions]
            assert envelopes == [tx.envelope_bytes() for tx in original.transactions]
            assert merkle_root(envelopes).hex() == block.header.data_hash
            assert block.header.hash() == original.header.hash()
        snapshot = Snapshot.from_bytes(take_snapshot(peers[0], "traffic").to_bytes())
        assert len(snapshot.entries) == len(values)
        replayed = manager.crash_and_recover(peers[1].name)  # base + deltas + WAL
        assert replayed.kind == "wal_replay"
        manager.damage_wal(peers[2].name, CORRUPT)
        transferred = manager.crash_and_recover(peers[2].name)  # snapshot lines
        assert transferred.kind == "state_transfer"
        digests = {state_digest(peer.world) for peer in peers}
        assert digests == {snapshot.digest}
        for peer in peers:
            peer.ledger.verify_chain()
            assert [peer.world.get(f"k{i}") for i in range(len(values))] == values


class TestOneFormPerTransaction:
    def test_a_store_carries_no_event_and_every_envelope_is_canonical(self):
        framework = Framework(FrameworkConfig(consensus="solo", n_ipfs_nodes=1))
        identity = framework.register_source("fmt-cam", tier=SourceTier.TRUSTED)
        client = Client(framework, identity)
        receipt = client.submit(b"frame", {"camera_id": "c\"1", "note": "é\n"})
        assert receipt.ok
        framework.channel.flush()
        peer = next(iter(framework.channel.peers.values()))
        stores = 0
        for block in peer.ledger.blocks():
            for tx in block.transactions:
                envelope = tx.envelope_bytes()
                doc = json.loads(envelope)
                assert canonical_json(doc) == envelope
                assert doc["proposal"] == json.loads(tx.proposal.signing_payload())
                if (tx.proposal.chaincode, tx.proposal.fn) == ("data_upload", "store"):
                    stores += 1
                    assert tx.events == () and doc["events"] == []
                    record = peer.world.get(f"data:{tx.tx_id}")
                    written = {w["key"]: w["value"] for w in doc["rwset"]["writes"]}
                    assert written[f"data:{tx.tx_id}"] == record.decode("utf-8")
        assert stores == 1

    def test_a_doctored_text_value_in_a_wal_record_is_refused(self):
        """The replayed block's envelopes no longer hash to its data hash, so
        the record is untrustworthy and recovery falls back to a verified
        state transfer."""
        net, channel, alice = make_network(peers_per_org=2)
        manager = DurabilityManager(channel, checkpoint_interval=8, wal_sync_every=1)
        for i in range(3):
            channel.invoke(alice, "kv", "put", [f"k{i}", f"honest-{i}"])
        peer = channel.peers["peer1.org1"]
        store = manager.stores[peer.name]
        records, _ = store.read_log(WAL_LOG)
        doctored = [r.replace(b'"value":"honest-1"', b'"value":"forged-1"') for r in records]
        assert doctored != records
        store.truncate_log(WAL_LOG)
        for payload in doctored:
            store.append(WAL_LOG, payload)
        store.sync()
        outcome = manager.crash_and_recover(peer.name)
        assert (outcome.kind, outcome.wal_damage) == ("state_transfer", "invalid")
        assert peer.world.get("k1") == b"honest-1"
        other = channel.peers["peer0.org1"]
        assert state_digest(peer.world) == state_digest(other.world)
        peer.ledger.verify_chain()
