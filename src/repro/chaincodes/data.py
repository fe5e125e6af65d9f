"""Data Upload / Data Retrieval chaincodes (paper §III-B b).

The split mirrors the paper's two snippets: the upload contract records a
data entry's IPFS CID plus extracted metadata on-chain under the uploading
transaction's id (``ctx.stub.getTxID()`` in the paper); the retrieval
contract reads that record back so the client can fetch the raw bytes from
IPFS by CID and verify them against the on-chain hash.

On top of the snippets, the upload path maintains composite-key secondary
indexes (by source, by camera, by time bucket, by vehicle class) — the
"efficient querying mechanisms" contribution — and records the raw-data
SHA-256 so retrieval can prove integrity, the provenance property §III-B c
calls out.
"""

from __future__ import annotations

import json

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

_DATA_PREFIX = "data:"
# Composite index object types.
IDX_SOURCE = "data~source"
IDX_CAMERA = "data~camera"
IDX_TIME = "data~time"
IDX_CLASS = "data~class"
IDX_VIOLATION = "data~violation"

TIME_BUCKET_S = 600  # ten-minute buckets for time-range queries


def time_bucket(timestamp: float) -> str:
    """Zero-padded bucket id so lexicographic order is chronological."""
    return f"{int(timestamp // TIME_BUCKET_S):012d}"


class DataUploadChaincode(Chaincode):
    name = "data_upload"

    @staticmethod
    def _key(entry_id: str) -> str:
        return _DATA_PREFIX + entry_id

    def add_data(self, stub: ChaincodeStub, cid: str, data_hash: str, metadata_json: str):
        """Record a validated upload: CID + metadata, keyed by tx id.

        ``data_hash`` is the SHA-256 of the raw bytes stored off-chain;
        verification at retrieval compares the fetched bytes against it.
        """
        if not cid:
            raise ChaincodeError("cid must be non-empty")
        if len(data_hash) != 64:
            raise ChaincodeError("data_hash must be a sha-256 hex digest")
        try:
            metadata = json.loads(metadata_json)
        except json.JSONDecodeError as exc:
            raise ChaincodeError(f"metadata is not valid JSON: {exc}") from exc
        if not isinstance(metadata, dict):
            raise ChaincodeError("metadata must be a JSON object")
        entry_id = stub.get_tx_id()
        key = self._key(entry_id)
        if stub.get_state(key) is not None:
            raise ChaincodeError(f"data entry {entry_id} already exists")
        record = {
            "entry_id": entry_id,
            "cid": cid,
            "data_hash": data_hash,
            "metadata": metadata,
            "source_id": metadata.get("source_id", stub.get_creator().name),
            "created_at": isoformat(stub.get_timestamp()),
            "uploader": stub.get_creator().name,
            "uploader_org": stub.get_creator().org,
        }
        stub.put_state(key, canonical_json(record))
        self._index(stub, entry_id, record)
        stub.set_event(
            "DataStored",
            {"entry_id": entry_id, "cid": cid, "source_id": record["source_id"]},
        )
        return {"entry_id": entry_id, "cid": cid}

    def store(self, stub: ChaincodeStub, cid: str, data_hash: str, metadata_json: str):
        """The whole store path as one atomic transaction: :meth:`add_data`
        plus the entry's ``captured`` → ``stored`` provenance trail, recorded
        by the provenance chaincode in this same simulation — one rwset, one
        endorsement, one block. The ``stored`` event's block is the block of
        its own ``tx_id``; a failure anywhere leaves neither record nor trail.
        """
        result = self.add_data(stub, cid, data_hash, metadata_json)
        actor = stub.get_creator().name
        for action, details in (("captured", {"data_hash": data_hash}), ("stored", {"cid": cid})):
            stub.invoke_chaincode(
                "provenance",
                "record",
                [result["entry_id"], action, actor, canonical_json(details).decode()],
            )
        return result

    def _index(self, stub: ChaincodeStub, entry_id: str, record: dict) -> None:
        metadata = record["metadata"]
        marker = b"\x01"  # composite index entries carry no payload
        stub.put_state(
            stub.create_composite_key(IDX_SOURCE, [record["source_id"], entry_id]), marker
        )
        camera = metadata.get("camera_id")
        if camera:
            stub.put_state(
                stub.create_composite_key(IDX_CAMERA, [str(camera), entry_id]), marker
            )
        ts = metadata.get("timestamp")
        if isinstance(ts, (int, float)):
            stub.put_state(
                stub.create_composite_key(IDX_TIME, [time_bucket(ts), entry_id]), marker
            )
        for detection in metadata.get("detections", []):
            cls = detection.get("vehicle_class")
            if cls:
                key = stub.create_composite_key(IDX_CLASS, [str(cls), entry_id])
                stub.put_state(key, marker)
        for violation in metadata.get("violations", []):
            vtype = violation.get("violation_type")
            if vtype:
                key = stub.create_composite_key(IDX_VIOLATION, [str(vtype), entry_id])
                stub.put_state(key, marker)

    # -- reads shared with the retrieval contract -------------------------------

    def get_data(self, stub: ChaincodeStub, entry_id: str):
        raw = stub.get_state(self._key(entry_id))
        if raw is None:
            raise ChaincodeError(f"No metadata found for transaction ID {entry_id}")
        return json.loads(raw)


class DataRetrievalChaincode(Chaincode):
    """The paper's retrieval contract: metadata lookup and index scans.

    The raw-bytes fetch from IPFS happens off-chain in the client (the
    paper's ``ipfsClient.get(metadata.cid)`` line is the client library's
    job here); this contract serves the on-chain half — the metadata, the
    CID, and the integrity hash.
    """

    name = "data_retrieval"

    @staticmethod
    def _key(entry_id: str) -> str:
        return _DATA_PREFIX + entry_id

    def get_data(self, stub: ChaincodeStub, entry_id: str):
        raw = stub.get_state(self._key(entry_id))
        if raw is None:
            raise ChaincodeError(f"No metadata found for transaction ID {entry_id}")
        return json.loads(raw)

    def get_cid(self, stub: ChaincodeStub, entry_id: str):
        return self.get_data(stub, entry_id)["cid"]

    def _ids_from_index(self, stub: ChaincodeStub, object_type: str, attrs: list[str]):
        rows = stub.get_state_by_partial_composite_key(object_type, attrs)
        ids = []
        for key, _ in rows:
            _, parts = stub.split_composite_key(key)
            ids.append(parts[-1])
        return ids

    def _load_many(self, stub: ChaincodeStub, ids: list[str]):
        out = []
        for entry_id in ids:
            raw = stub.get_state(self._key(entry_id))
            if raw is not None:
                out.append(json.loads(raw))
        return out

    def list_by_source(self, stub: ChaincodeStub, source_id: str):
        return self._load_many(stub, self._ids_from_index(stub, IDX_SOURCE, [source_id]))

    def list_by_camera(self, stub: ChaincodeStub, camera_id: str):
        return self._load_many(stub, self._ids_from_index(stub, IDX_CAMERA, [camera_id]))

    def list_by_vehicle_class(self, stub: ChaincodeStub, vehicle_class: str):
        return self._load_many(stub, self._ids_from_index(stub, IDX_CLASS, [vehicle_class]))

    def list_by_violation(self, stub: ChaincodeStub, violation_type: str):
        return self._load_many(stub, self._ids_from_index(stub, IDX_VIOLATION, [violation_type]))

    def list_by_time_range(self, stub: ChaincodeStub, start_ts: str, end_ts: str):
        """Entries whose metadata timestamp falls in [start_ts, end_ts)."""
        start, end = float(start_ts), float(end_ts)
        if end < start:
            raise ChaincodeError("time range end before start")
        ids: list[str] = []
        bucket = int(start // TIME_BUCKET_S)
        last_bucket = int(end // TIME_BUCKET_S)
        while bucket <= last_bucket:
            ids.extend(self._ids_from_index(stub, IDX_TIME, [f"{bucket:012d}"]))
            bucket += 1
        records = self._load_many(stub, ids)
        return [
            r
            for r in records
            if isinstance(r["metadata"].get("timestamp"), (int, float))
            and start <= r["metadata"]["timestamp"] < end
        ]

    def list_all(self, stub: ChaincodeStub):
        """Full scan of data records (the planner's fallback access path)."""
        rows = stub.get_state_by_range(_DATA_PREFIX, _DATA_PREFIX + "\x7f")
        return [json.loads(v) for _, v in rows]

    def history(self, stub: ChaincodeStub, entry_id: str):
        """Write history of a data record (audit trail)."""
        return [
            {
                "tx_id": e.tx_id,
                "deleted": e.is_delete,
                "block": e.version.block,
            }
            for e in stub.get_history_for_key(self._key(entry_id))
        ]
