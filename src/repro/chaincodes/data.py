"""Data Upload / Data Retrieval chaincodes (paper §III-B b).

The split mirrors the paper's two snippets: the upload contract records a
data entry's IPFS CID plus extracted metadata on-chain under the uploading
transaction's id (``ctx.stub.getTxID()`` in the paper); the retrieval
contract reads that record back so the client can fetch the raw bytes from
IPFS by CID and verify them against it.

The CID is the record's one commitment to the raw bytes: it is the root of a
sha-256 Merkle DAG over the payload's chunks, so a read that hashes every
block under it proves integrity, the provenance property §III-B c calls out,
and no second payload digest is stored beside it. The record is the store's
only write: the entry's ``captured`` → ``stored`` provenance events are read
from it (:mod:`repro.chaincodes.provenance`).
The contracts keep no secondary index of their own: the "efficient querying
mechanisms" contribution is the peers' block-incremental authenticated
index (:mod:`repro.index`), derived from these ``data:`` records. The
retrieval contract's :meth:`~DataRetrievalChaincode.list_all` full scan is
the query engine's fallback and its parity oracle.
"""

from __future__ import annotations

import json

from repro.crypto.cid import CID
from repro.errors import ChaincodeError, EncodingError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

_DATA_PREFIX = "data:"


class DataUploadChaincode(Chaincode):
    name = "data_upload"

    @staticmethod
    def _key(entry_id: str) -> str:
        return _DATA_PREFIX + entry_id

    def store(self, stub: ChaincodeStub, cid: str, metadata_json: str):
        """Record a validated upload: CID + metadata, keyed by tx id — the
        whole store path, one write in one transaction.

        ``cid`` addresses the raw bytes stored off-chain and is what
        retrieval verifies every fetched block against; a string that does
        not parse as a CID is refused. The record also determines the
        entry's ``captured`` → ``stored`` provenance events, which the
        provenance chaincode builds from it.
        """
        try:
            CID.parse(cid)
        except EncodingError as exc:
            raise ChaincodeError(f"cid {cid!r} is not a CID: {exc}") from exc
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
            "metadata": metadata,
            "source_id": metadata.get("source_id", stub.get_creator().name),
            "created_at": isoformat(stub.get_timestamp()),
            "uploader": stub.get_creator().name,
            "uploader_org": stub.get_creator().org,
        }
        stub.put_state(key, canonical_json(record))
        return {"entry_id": entry_id, "cid": cid}


class DataRetrievalChaincode(Chaincode):
    """The paper's retrieval contract: metadata lookup and the full scan.

    The raw-bytes fetch from IPFS happens off-chain in the client (the
    paper's ``ipfsClient.get(metadata.cid)`` line is the client library's
    job here); this contract serves the on-chain half — the metadata and the
    CID the bytes are verified against.
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
