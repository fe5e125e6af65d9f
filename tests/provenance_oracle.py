"""The former store path, kept as the oracle for derived provenance.

Until lineage was read from the data record, ``data_upload.store`` wrote the
record and then, in the same simulation, called ``provenance.record`` twice:
a ``captured`` and a ``stored`` event, each written under ``prov / <id> /
<seq>`` beside a ``provhead:`` key. The two chaincodes below are that
writer, verbatim in behaviour. :func:`replay` runs every committed
``data_upload.store`` and ``provenance.record_many`` transaction of a ledger
through them, with each transaction's own tx id, creator and timestamp, so
:func:`lineage` and :func:`verify` answer what the former code would have
answered for the same history.

A store now sends ``(cid, metadata_json)`` and no payload hash: the writer
is handed, as the ``data_hash`` its ``captured`` event records, the hex
sha-256 digest the CID carries — the value the record's built event carries.
"""

from __future__ import annotations

import hashlib
import json

from repro.crypto.cid import CID
from repro.errors import ChaincodeError
from repro.fabric import audit
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.fabric.worldstate import Version, WorldState, composite_prefix_range
from repro.util.clock import isoformat
from repro.util.serialization import canonical_json

GENESIS_HASH = "0" * 64


def _entry_hash(entry: dict) -> str:
    hashable = {k: v for k, v in entry.items() if k != "entry_hash"}
    return hashlib.sha256(canonical_json(hashable)).hexdigest()


class OracleDataUpload(Chaincode):
    name = "data_upload"

    def add_data(self, stub: ChaincodeStub, cid: str, metadata_json: str):
        metadata = json.loads(metadata_json)
        entry_id = stub.get_tx_id()
        key = "data:" + entry_id
        if stub.get_state(key) is not None:
            raise ChaincodeError(f"data entry {entry_id} already exists")
        record = {
            "entry_id": entry_id,
            "cid": cid,
            "metadata": metadata,
            "source_id": metadata.get("source_id", stub.get_creator().name),
            "created_at": isoformat(stub.get_timestamp()),
            "uploader": stub.get_creator().name,
            "uploader_org": stub.get_creator().org,
        }
        stub.put_state(key, canonical_json(record))
        return {"entry_id": entry_id, "cid": cid}

    def store(self, stub: ChaincodeStub, cid: str, metadata_json: str):
        result = self.add_data(stub, cid, metadata_json)
        data_hash = CID.parse(cid).digest.hex()
        actor = stub.get_creator().name
        for action, details in (("captured", {"data_hash": data_hash}), ("stored", {"cid": cid})):
            _ORACLES["provenance"].dispatch(
                stub,
                "record",
                [result["entry_id"], action, actor, canonical_json(details).decode()],
            )
        return result


class OracleProvenance(Chaincode):
    name = "provenance"

    def record(self, stub, entry_id, action, actor, details_json="{}"):
        return self._append(stub, entry_id, action, actor, json.loads(details_json))

    def record_many(self, stub, events_json):
        return [
            self._append(
                stub,
                event.get("entry_id", ""),
                event.get("action", ""),
                event.get("actor", ""),
                event.get("details", {}),
            )
            for event in json.loads(events_json)
        ]

    def _append(self, stub, entry_id, action, actor, details):
        head_raw = stub.get_state("provhead:" + entry_id)
        if head_raw is None:
            seq, prev_hash = 0, GENESIS_HASH
        else:
            head = json.loads(head_raw)
            seq, prev_hash = head["seq"] + 1, head["entry_hash"]
        entry = {
            "entry_id": entry_id,
            "seq": seq,
            "action": action,
            "actor": actor,
            "details": details,
            "tx_id": stub.get_tx_id(),
            "timestamp": isoformat(stub.get_timestamp()),
            "prev_hash": prev_hash,
        }
        entry["entry_hash"] = _entry_hash(entry)
        key = stub.create_composite_key("prov", [entry_id, f"{seq:08d}"])
        stub.put_state(key, canonical_json(entry))
        stub.put_state(
            "provhead:" + entry_id,
            canonical_json({"seq": seq, "entry_hash": entry["entry_hash"]}),
        )
        return {"seq": seq, "entry_hash": entry["entry_hash"]}


_ORACLES = {cc.name: cc for cc in (OracleDataUpload(), OracleProvenance())}
_REPLAYED = {("data_upload", "store"), ("provenance", "record_many")}


def replay(ledger) -> WorldState:
    """The world state the former writer leaves after ``ledger``'s valid
    store and ``record_many`` transactions, in commit order."""
    world = WorldState()
    for block in ledger.blocks():
        for i, tx in enumerate(audit.valid_txs(block)):
            proposal = tx.proposal
            if (proposal.chaincode, proposal.fn) not in _REPLAYED:
                continue
            stub = ChaincodeStub(
                world, tx.tx_id, proposal.creator, proposal.timestamp, proposal.chaincode
            )
            _ORACLES[proposal.chaincode].dispatch(stub, proposal.fn, list(proposal.args))
            for write in stub.rwset().writes:
                world.apply_write(
                    write.key, write.value, Version(block.number, i), tx.tx_id,
                    proposal.timestamp,
                )
    return world


def lineage(world: WorldState, entry_id: str) -> list[dict]:
    return [
        json.loads(v) for _, v in world.range(*composite_prefix_range("prov", [entry_id]))
    ]


def verify(world: WorldState, entry_id: str) -> dict:
    chain = lineage(world, entry_id)
    prev_hash = GENESIS_HASH
    for i, entry in enumerate(chain):
        assert entry["seq"] == i and entry["prev_hash"] == prev_hash
        assert _entry_hash(entry) == entry["entry_hash"]
        prev_hash = entry["entry_hash"]
    return {"entry_id": entry_id, "length": len(chain), "head": prev_hash}
