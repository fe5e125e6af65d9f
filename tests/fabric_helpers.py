"""Shared helpers for fabric tests: a simple KV chaincode and network setup."""

from __future__ import annotations

import json

from repro.errors import ChaincodeError, LedgerError
from repro.fabric import Chaincode, ChaincodeStub, FabricNetwork, Role
from repro.fabric.worldstate import COMPOSITE_SEP


def split_composite_key(key: str) -> tuple[str, list[str]]:
    """The ``(object_type, attributes)`` a composite key was made from: the
    layout :func:`~repro.fabric.worldstate.make_composite_key` writes, read
    back so tests can check it."""
    if not key.startswith(COMPOSITE_SEP):
        raise LedgerError(f"not a composite key: {key!r}")
    # parts[0] is the empty string before the leading separator; the last
    # element is empty from the trailing separator when attributes exist.
    body = key.split(COMPOSITE_SEP)[1:]
    if body and body[-1] == "":
        body = body[:-1]
    if not body:
        raise LedgerError(f"malformed composite key: {key!r}")
    return body[0], body[1:]


class KvChaincode(Chaincode):
    """Minimal chaincode exercising the whole stub API."""

    name = "kv"

    def put(self, stub: ChaincodeStub, key: str, value: str):
        stub.put_state(key, value.encode())
        return {"key": key}

    def get(self, stub: ChaincodeStub, key: str):
        value = stub.get_state(key)
        if value is None:
            raise ChaincodeError(f"key {key!r} not found")
        return {"key": key, "value": value.decode()}

    def delete(self, stub: ChaincodeStub, key: str):
        stub.del_state(key)
        return {"deleted": key}

    def increment(self, stub: ChaincodeStub, key: str):
        """Read-modify-write: the MVCC conflict generator."""
        raw = stub.get_state(key)
        current = int(raw.decode()) if raw is not None else 0
        stub.put_state(key, str(current + 1).encode())
        return {"key": key, "value": current + 1}

    def put_indexed(self, stub: ChaincodeStub, category: str, item: str, value: str):
        key = stub.create_composite_key("cat", [category, item])
        stub.put_state(key, value.encode())
        return {"key": "composite"}

    def list_category(self, stub: ChaincodeStub, category: str):
        rows = stub.get_state_by_partial_composite_key("cat", [category])
        out = []
        for key, value in rows:
            _, attrs = split_composite_key(key)
            out.append({"item": attrs[1], "value": value.decode()})
        return out

    def history(self, stub: ChaincodeStub, key: str):
        return [
            {"tx_id": e.tx_id, "value": e.value.decode() if e.value else None}
            for e in stub.get_history_for_key(key)
        ]

    def emit(self, stub: ChaincodeStub, name: str):
        stub.set_event(name, {"from": stub.get_creator().name})
        return {"emitted": name}

    def whoami(self, stub: ChaincodeStub):
        creator = stub.get_creator()
        return {"name": creator.name, "org": creator.org, "role": creator.role.value}

    def boom(self, stub: ChaincodeStub):
        raise ChaincodeError("deliberate failure")

    def call_other(self, stub: ChaincodeStub, chaincode: str, key: str, value: str):
        nested = stub.invoke_chaincode(chaincode, "put", [key, value])
        return {"nested": json.loads(nested)}


def make_network(consensus="solo", orgs=("org1", "org2"), peers_per_org=1, **kwargs):
    """One channel, the paper's shape: two orgs, one peer each, one orderer."""
    net = FabricNetwork()
    channel = net.create_channel(
        "traffic", orgs=list(orgs), peers_per_org=peers_per_org, consensus=consensus, **kwargs
    )
    channel.install_chaincode(KvChaincode())
    client = net.register_identity("alice", "org1", role=Role.CLIENT)
    return net, channel, client
