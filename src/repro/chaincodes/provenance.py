"""Provenance chaincode (paper §III-B c).

"The chaincode uses cryptographic hashes to verify data integrity,
preventing tampering and maintaining an immutable record of changes."

Each data entry gets a hash-chained lineage: every provenance event
(captured → stored → accessed → …) links to the previous event's hash, so
the full chain is verifiable from the latest record and any historical
edit is detectable. A store's ``captured`` and ``stored`` events are read
from its ``data:`` record (:func:`store_events`), which determines them;
later events are stored under composite keys ``prov / <entry_id> / <seq>``
so one range scan returns them in order, the first chained on ``stored``.

:meth:`ProvenanceChaincode.record_many` appends a list of events in one
simulation — how a reader's queued ``accessed`` events ride the next
ordering round as one transaction.
"""

from __future__ import annotations

import hashlib
import json

from repro.crypto.cid import CID
from repro.errors import ChaincodeError, EncodingError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

IDX_PROV = "prov"
_DATA_PREFIX = "data:"
_HEAD_PREFIX = "provhead:"
GENESIS_HASH = "0" * 64


def _entry_hash(entry: dict) -> str:
    hashable = {k: v for k, v in entry.items() if k != "entry_hash"}
    return hashlib.sha256(canonical_json(hashable)).hexdigest()


def store_events(record: dict) -> list[dict]:
    """The ``captured`` → ``stored`` events a store's data record
    determines: seq 0 and 1 by its uploader, tx id and ``created_at``,
    hash-chained from :data:`GENESIS_HASH`, keys in canonical order.

    ``captured`` carries ``data_hash``: the hex sha-256 digest the record's
    CID carries — for a one-chunk payload, the sha-256 of the payload."""
    cid = record["cid"]
    try:
        data_hash = CID.parse(cid).digest.hex()
    except EncodingError as exc:  # only a doctored record: store refuses these
        raise ChaincodeError(f"data record {record['entry_id']} has no valid cid") from exc
    events, prev_hash = [], GENESIS_HASH
    for seq, (action, details) in enumerate(
        (("captured", {"data_hash": data_hash}), ("stored", {"cid": cid}))
    ):
        entry = {
            "action": action,
            "actor": record["uploader"],
            "details": details,
            "entry_hash": "",  # keeps its canonical place; _entry_hash skips it
            "entry_id": record["entry_id"],
            "prev_hash": prev_hash,
            "seq": seq,
            "timestamp": record["created_at"],
            "tx_id": record["entry_id"],
        }
        entry["entry_hash"] = prev_hash = _entry_hash(entry)
        events.append(entry)
    return events


class ProvenanceChaincode(Chaincode):
    name = "provenance"

    @staticmethod
    def _store_events(stub: ChaincodeStub, entry_id: str) -> list[dict]:
        raw = stub.get_state(_DATA_PREFIX + entry_id)
        return [] if raw is None else store_events(json.loads(raw))

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
        head_raw = stub.get_state(_HEAD_PREFIX + entry_id)
        if head_raw is not None:
            head = json.loads(head_raw)
            seq, prev_hash = head["seq"] + 1, head["entry_hash"]
        else:
            # The entry's first written event: after a store's derived
            # pair, or at the genesis of an entry with no data record.
            derived = self._store_events(stub, entry_id)
            seq = len(derived)
            prev_hash = derived[-1]["entry_hash"] if derived else GENESIS_HASH
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
        # One rendering, hashed, then stored with the hash spliced in:
        # "entry_hash" sorts between "details" and "entry_id", and nothing
        # after the top-level "entry_id" nests, so the last one is it.
        hashable = canonical_json(entry)
        entry_hash = hashlib.sha256(hashable).hexdigest()
        cut = hashable.rindex(b',"entry_id":') + 1
        key = stub.create_composite_key(IDX_PROV, [entry_id, f"{seq:08d}"])
        stub.put_state(
            key, b'%s"entry_hash":"%s",%s' % (hashable[:cut], entry_hash.encode(), hashable[cut:])
        )
        stub.put_state(
            _HEAD_PREFIX + entry_id,
            # Canonical: the head record is re-read and re-hashed on every
            # append, so its bytes must not depend on dict order.
            canonical_json({"seq": seq, "entry_hash": entry_hash}),
        )
        return {"seq": seq, "entry_hash": entry_hash}

    def lineage(self, stub: ChaincodeStub, entry_id: str):
        """The full provenance chain of an entry, oldest first: the events
        its data record determines, then the written ones."""
        rows = stub.get_state_by_partial_composite_key(IDX_PROV, [entry_id])
        return self._store_events(stub, entry_id) + [json.loads(v) for _, v in rows]

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
