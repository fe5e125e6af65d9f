"""Exact block <-> document codec for the write-ahead log.

The WAL stores whole blocks as canonical-JSON documents. The round trip
must be *exact*: a decoded block's transaction envelopes have to hash to
the same Merkle root and its header to the same chain hash, or replay
would be rejected by the very validation it is meant to satisfy.

A transaction's document *is* its envelope
(:meth:`~repro.fabric.tx.Transaction.envelope_bytes`): the signed proposal
as JSON beside its hex signature, the rwset with each written value as its
UTF-8 text (:func:`~repro.util.serialization.value_to_json`), the response,
the endorsements and the events. Signatures stay hex (canonical JSON
refuses raw bytes), and tuples are rebuilt on decode so frozen dataclass
equality holds.

The batch and block records are rendered in parts around the envelope bytes
each transaction already remembers, so the orderer's batch record and every
peer's block record share them.
"""

from __future__ import annotations

import math

from repro.errors import EncodingError
from repro.fabric.identity import IdentityInfo
from repro.fabric.ledger import Block, BlockHeader
from repro.fabric.tx import (
    ChaincodeEvent,
    Endorsement,
    ReadEntry,
    ReadWriteSet,
    Transaction,
    TxProposal,
    ValidationCode,
    WriteEntry,
)
from repro.fabric.worldstate import Version
from repro.obs.prof import profiled
from repro.util.serialization import from_canonical_json, render, value_from_json


def _version_from(doc: dict | None) -> Version | None:
    return None if doc is None else Version(block=int(doc["block"]), tx=int(doc["tx"]))


def tx_to_doc(tx: Transaction) -> dict:
    """The parsed envelope."""
    return from_canonical_json(tx.envelope_bytes())


def tx_from_doc(doc: dict) -> Transaction:
    """The transaction whose envelope parses to ``doc``."""
    proposal, rwset = doc["proposal"], doc["rwset"]
    return Transaction(
        proposal=TxProposal(
            tx_id=proposal["tx_id"],
            channel=proposal["channel"],
            chaincode=proposal["chaincode"],
            fn=proposal["fn"],
            args=tuple(proposal["args"]),
            creator=IdentityInfo.from_dict(proposal["creator"]),
            timestamp=float(proposal["timestamp"]),
            signature=bytes.fromhex(doc["proposal_sig"]),
        ),
        rwset=ReadWriteSet(
            reads=tuple(
                ReadEntry(key=r["key"], version=_version_from(r["version"]))
                for r in rwset["reads"]
            ),
            writes=tuple(
                WriteEntry(
                    key=w["key"],
                    value=None if w["value"] is None else value_from_json(w["value"]),
                    is_delete=bool(w["is_delete"]),
                )
                for w in rwset["writes"]
            ),
        ),
        response=doc["response"],
        endorsements=tuple(
            Endorsement(
                endorser=IdentityInfo.from_dict(e["endorser"]),
                signature=bytes.fromhex(e["sig"]),
            )
            for e in doc["endorsements"]
        ),
        events=tuple(
            ChaincodeEvent(
                chaincode=ev["chaincode"], name=ev["name"], payload=ev["payload"]
            )
            for ev in doc["events"]
        ),
    )


def block_to_doc(block: Block) -> dict:
    with profiled("serialize.block_codec"):
        return {
            "header": {
                "number": block.header.number,
                "previous_hash": block.header.previous_hash,
                "data_hash": block.header.data_hash,
                "timestamp": block.header.timestamp,
                "rejected": list(block.header.rejected),
            },
            "txs": [tx_to_doc(tx) for tx in block.transactions],
            "codes": [code.value for code in block.validation_codes],
        }


# -- WAL records: canonical_json of the documents, rendered in key order
# around the envelopes, since every committed transaction passes through
# three of them.


def batch_record(request_id: str, txs) -> bytes:
    """``canonical_json({"type": "batch", "request_id": ..., "txs": [doc, ...]})``."""
    return (
        b'{"request_id":' + render(request_id) + b',"txs":['
        + b",".join(tx.envelope_bytes() for tx in txs) + b'],"type":"batch"}'
    )


def block_record(block: Block, index_epoch: str | None) -> bytes:
    """``canonical_json({"type": "block", "block": block_to_doc(block),
    "index_epoch": index_epoch})``."""
    header = block.header
    if not -math.inf < header.timestamp < math.inf:  # orjson would write null
        raise EncodingError("NaN/Inf are not canonically serializable")
    head = render({
        "codes": [code.value for code in block.validation_codes],
        "header": {
            "data_hash": header.data_hash, "number": header.number,
            "previous_hash": header.previous_hash, "rejected": header.rejected,
            "timestamp": header.timestamp,
        },
    })
    tail = render({"index_epoch": index_epoch, "type": "block"})
    txs = b",".join(tx.envelope_bytes() for tx in block.transactions)
    return b'{"block":' + head[:-1] + b',"txs":[' + txs + b"]}," + tail[1:]


def block_from_doc(doc: dict) -> Block:
    with profiled("serialize.block_codec"):
        header = doc["header"]
        return Block(
            header=BlockHeader(
                number=int(header["number"]),
                previous_hash=header["previous_hash"],
                data_hash=header["data_hash"],
                timestamp=float(header["timestamp"]),
                rejected=tuple(map(int, header["rejected"])),
            ),
            transactions=tuple(tx_from_doc(tx) for tx in doc["txs"]),
            validation_codes=tuple(ValidationCode(code) for code in doc["codes"]),
        )
