"""Tests for the chaincode stub: rwset capture, composite keys, events."""

import pytest

from repro.errors import ChaincodeError
from repro.fabric.chaincode import ChaincodeStub
from repro.fabric.identity import Identity
from repro.fabric.worldstate import Version, WorldState

from tests.fabric_helpers import KvChaincode


def make_stub(world=None, tx_id="tx-1"):
    world = world or WorldState()
    creator = Identity.create("alice", "org1").info()
    return ChaincodeStub(
        world=world, tx_id=tx_id, creator=creator, timestamp=100.0, chaincode_name="kv"
    )


class TestStubStateAccess:
    def test_read_records_version(self):
        world = WorldState()
        world.apply_write("k", b"v", Version(3, 1), "t0", 0.0)
        stub = make_stub(world)
        assert stub.get_state("k") == b"v"
        reads = stub.rwset().reads
        assert len(reads) == 1
        assert reads[0].key == "k" and reads[0].version == Version(3, 1)

    def test_read_missing_records_none_version(self):
        stub = make_stub()
        assert stub.get_state("ghost") is None
        assert stub.rwset().reads[0].version is None

    def test_write_then_read_sees_buffered_value(self):
        stub = make_stub()
        stub.put_state("k", b"new")
        assert stub.get_state("k") == b"new"
        # Reading own write adds no read-set entry.
        assert stub.rwset().reads == ()

    def test_delete_then_read_sees_none(self):
        world = WorldState()
        world.apply_write("k", b"v", Version(1, 0), "t0", 0.0)
        stub = make_stub(world)
        stub.del_state("k")
        assert stub.get_state("k") is None

    def test_writes_never_touch_live_state(self):
        world = WorldState()
        stub = make_stub(world)
        stub.put_state("k", b"v")
        assert world.get("k") is None

    def test_last_write_wins_in_write_set(self):
        stub = make_stub()
        stub.put_state("k", b"v1")
        stub.put_state("k", b"v2")
        writes = stub.rwset().writes
        assert len(writes) == 1
        assert writes[0].value == b"v2"

    def test_empty_key_rejected(self):
        with pytest.raises(ChaincodeError):
            make_stub().put_state("", b"v")

    def test_non_bytes_value_rejected(self):
        with pytest.raises(ChaincodeError):
            make_stub().put_state("k", "not-bytes")

    def test_range_merges_buffered_writes(self):
        world = WorldState()
        world.apply_write("a", b"1", Version(1, 0), "t", 0.0)
        world.apply_write("c", b"3", Version(1, 1), "t", 0.0)
        stub = make_stub(world)
        stub.put_state("b", b"2")
        stub.del_state("c")
        rows = stub.get_state_by_range("a", "z")
        assert rows == [("a", b"1"), ("b", b"2")]

    def test_rwset_digest_deterministic(self):
        s1, s2 = make_stub(), make_stub()
        for stub in (s1, s2):
            stub.get_state("x")
            stub.put_state("y", b"1")
        assert s1.rwset().digest() == s2.rwset().digest()

    def test_context_accessors(self):
        stub = make_stub(tx_id="tx-42")
        assert stub.get_tx_id() == "tx-42"
        assert stub.get_creator().name == "alice"
        assert stub.get_timestamp() == 100.0


class TestDispatch:
    def test_dispatch_routes_and_serializes(self):
        stub = make_stub()
        out = KvChaincode().dispatch(stub, "put", ["k", "v"])
        # Responses render as canonical JSON (sorted keys, compact): the
        # response string is part of what every endorser signs.
        assert out == '{"key":"k"}'

    def test_unknown_function_rejected(self):
        with pytest.raises(ChaincodeError):
            KvChaincode().dispatch(make_stub(), "nope", [])

    def test_private_function_rejected(self):
        with pytest.raises(ChaincodeError):
            KvChaincode().dispatch(make_stub(), "_make_stub", [])

    def test_dunder_rejected(self):
        with pytest.raises(ChaincodeError):
            KvChaincode().dispatch(make_stub(), "__init__", [])

    def test_wrong_arity_is_chaincode_error(self):
        with pytest.raises(ChaincodeError):
            KvChaincode().dispatch(make_stub(), "put", ["only-one"])

    def test_application_error_propagates(self):
        with pytest.raises(ChaincodeError, match="deliberate"):
            KvChaincode().dispatch(make_stub(), "boom", [])

    def test_events_captured(self):
        stub = make_stub()
        KvChaincode().dispatch(stub, "emit", ["DataValidated"])
        events = stub.events()
        assert len(events) == 1
        assert events[0].name == "DataValidated"
        assert events[0].payload == {"from": "alice"}
