"""Data Upload / Data Retrieval chaincodes (paper §III-B b).

The split mirrors the paper's two snippets: the upload contract records a
data entry's IPFS CID plus extracted metadata on-chain under the uploading
transaction's id (``ctx.stub.getTxID()`` in the paper); the retrieval
contract reads that record back so the client can fetch the raw bytes from
IPFS by CID and verify them against the on-chain hash.

On top of the snippets, the upload path records the raw-data SHA-256 so
retrieval can prove integrity, the provenance property §III-B c calls out.
The contracts keep no secondary index of their own: the "efficient querying
mechanisms" contribution is the peers' block-incremental authenticated
index (:mod:`repro.index`), derived from these ``data:`` records. The
retrieval contract's :meth:`~DataRetrievalChaincode.list_all` full scan is
the query engine's fallback and its parity oracle.
"""

from __future__ import annotations

import json

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

_DATA_PREFIX = "data:"


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

    # -- reads shared with the retrieval contract -------------------------------

    def get_data(self, stub: ChaincodeStub, entry_id: str):
        raw = stub.get_state(self._key(entry_id))
        if raw is None:
            raise ChaincodeError(f"No metadata found for transaction ID {entry_id}")
        return json.loads(raw)


class DataRetrievalChaincode(Chaincode):
    """The paper's retrieval contract: metadata lookup and the full scan.

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

    def list_all(self, stub: ChaincodeStub):
        """Every data record, in entry-id (key) order: the query engine's
        fallback when no peer serves the index, and its parity oracle."""
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
