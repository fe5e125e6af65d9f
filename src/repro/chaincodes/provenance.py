"""Provenance chaincode (paper §III-B c).

"The chaincode uses cryptographic hashes to verify data integrity,
preventing tampering and maintaining an immutable record of changes."

Each data entry gets a hash-chained lineage: every provenance event
(captured → validated → stored → accessed → …) links to the previous
event's hash, so the full chain is verifiable from the latest record and
any historical edit is detectable. Entries are stored under composite keys
``prov / <entry_id> / <seq>`` so one range scan returns a lineage in order.

:meth:`ProvenanceChaincode.record_many` appends a list of events in one
simulation — how a reader's queued ``accessed`` events ride the next
ordering round as one transaction.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

IDX_PROV = "prov"
_HEAD_PREFIX = "provhead:"
GENESIS_HASH = "0" * 64


def _entry_hash(entry: dict) -> str:
    hashable = {k: v for k, v in entry.items() if k != "entry_hash"}
    return hashlib.sha256(canonical_json(hashable)).hexdigest()


class ProvenanceChaincode(Chaincode):
    name = "provenance"

    @staticmethod
    def _head_key(entry_id: str) -> str:
        return _HEAD_PREFIX + entry_id

    def record(
        self,
        stub: ChaincodeStub,
        entry_id: str,
        action: str,
        actor: str,
        details_json: str = "{}",
    ):
        """Append one provenance event to a data entry's chain."""
        try:
            details = json.loads(details_json)
        except json.JSONDecodeError as exc:
            raise ChaincodeError(f"details is not valid JSON: {exc}") from exc
        return self._append(stub, entry_id, action, actor, details)

    def record_many(self, stub: ChaincodeStub, events_json: str):
        """Append events in list order, each ``{"entry_id", "action",
        "actor", "details"}``; the stub reads its own writes, so two events
        on one entry chain as ``seq`` k, k+1 within this one transaction."""
        try:
            events = json.loads(events_json)
        except json.JSONDecodeError as exc:
            raise ChaincodeError(f"events is not valid JSON: {exc}") from exc
        if not isinstance(events, list) or not all(isinstance(e, dict) for e in events):
            raise ChaincodeError("events must be a list of objects")
        return [
            self._append(
                stub,
                event.get("entry_id", ""),
                event.get("action", ""),
                event.get("actor", ""),
                event.get("details", {}),
            )
            for event in events
        ]

    def _append(self, stub: ChaincodeStub, entry_id: str, action: str, actor: str, details):
        if not entry_id or not action:
            raise ChaincodeError("entry_id and action are required")
        head_raw = stub.get_state(self._head_key(entry_id))
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
        key = stub.create_composite_key(IDX_PROV, [entry_id, f"{seq:08d}"])
        stub.put_state(key, canonical_json(entry))
        stub.put_state(
            self._head_key(entry_id),
            # Canonical: the head record is re-read and re-hashed on every
            # append, so its bytes must not depend on dict order.
            canonical_json({"seq": seq, "entry_hash": entry["entry_hash"]}),
        )
        stub.set_event("ProvenanceRecorded", {"entry_id": entry_id, "action": action})
        return {"seq": seq, "entry_hash": entry["entry_hash"]}

    def lineage(self, stub: ChaincodeStub, entry_id: str):
        """The full provenance chain of an entry, oldest first."""
        rows = stub.get_state_by_partial_composite_key(IDX_PROV, [entry_id])
        return [json.loads(v) for _, v in rows]

    def verify(self, stub: ChaincodeStub, entry_id: str):
        """Recompute and check every hash link; returns the verified length.

        Raises on a broken link — the tamper-detection the paper claims.
        """
        chain = self.lineage(stub, entry_id)
        if not chain:
            raise ChaincodeError(f"no provenance for entry {entry_id}")
        prev_hash = GENESIS_HASH
        for i, entry in enumerate(chain):
            if entry["seq"] != i:
                raise ChaincodeError(f"provenance gap at seq {i} for {entry_id}")
            if entry["prev_hash"] != prev_hash:
                raise ChaincodeError(f"provenance chain broken at seq {i}")
            if _entry_hash(entry) != entry["entry_hash"]:
                raise ChaincodeError(f"provenance entry {i} hash mismatch")
            prev_hash = entry["entry_hash"]
        return {"entry_id": entry_id, "length": len(chain), "head": prev_hash}

    def head(self, stub: ChaincodeStub, entry_id: str):
        raw = stub.get_state(self._head_key(entry_id))
        if raw is None:
            raise ChaincodeError(f"no provenance for entry {entry_id}")
        return json.loads(raw)
