"""Exact block <-> document codec for the write-ahead log.

The WAL stores whole blocks as canonical-JSON documents. The round trip
must be *exact*: a decoded block's transaction envelopes have to hash to
the same Merkle root and its header to the same chain hash, or replay
would be rejected by the very validation it is meant to satisfy. Every
``bytes`` field is hex-encoded (canonical JSON refuses raw bytes), and
tuples are rebuilt on decode so frozen dataclass equality holds.
"""

from __future__ import annotations

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


def _version_doc(version: Version | None) -> dict | None:
    return None if version is None else {"block": version.block, "tx": version.tx}


def _version_from(doc: dict | None) -> Version | None:
    return None if doc is None else Version(block=int(doc["block"]), tx=int(doc["tx"]))


def proposal_to_doc(proposal: TxProposal) -> dict:
    return {
        "tx_id": proposal.tx_id,
        "channel": proposal.channel,
        "chaincode": proposal.chaincode,
        "fn": proposal.fn,
        "args": list(proposal.args),
        "creator": proposal.creator.to_dict(),
        "timestamp": proposal.timestamp,
        "signature": proposal.signature.hex(),
    }


def proposal_from_doc(doc: dict) -> TxProposal:
    return TxProposal(
        tx_id=doc["tx_id"],
        channel=doc["channel"],
        chaincode=doc["chaincode"],
        fn=doc["fn"],
        args=tuple(doc["args"]),
        creator=IdentityInfo.from_dict(doc["creator"]),
        timestamp=float(doc["timestamp"]),
        signature=bytes.fromhex(doc["signature"]),
    )


def rwset_to_doc(rwset: ReadWriteSet) -> dict:
    return {
        "reads": [[r.key, _version_doc(r.version)] for r in rwset.reads],
        "writes": [
            [w.key, None if w.value is None else w.value.hex(), w.is_delete]
            for w in rwset.writes
        ],
    }


def rwset_from_doc(doc: dict) -> ReadWriteSet:
    return ReadWriteSet(
        reads=tuple(
            ReadEntry(key=key, version=_version_from(version))
            for key, version in doc["reads"]
        ),
        writes=tuple(
            WriteEntry(
                key=key,
                value=None if value is None else bytes.fromhex(value),
                is_delete=bool(is_delete),
            )
            for key, value, is_delete in doc["writes"]
        ),
    )


def tx_to_doc(tx: Transaction) -> dict:
    return {
        "proposal": proposal_to_doc(tx.proposal),
        "rwset": rwset_to_doc(tx.rwset),
        "response": tx.response,
        "endorsements": [
            {"endorser": e.endorser.to_dict(), "sig": e.signature.hex()}
            for e in tx.endorsements
        ],
        "events": [
            {"chaincode": ev.chaincode, "name": ev.name, "payload": ev.payload}
            for ev in tx.events
        ],
    }


def tx_from_doc(doc: dict) -> Transaction:
    return Transaction(
        proposal=proposal_from_doc(doc["proposal"]),
        rwset=rwset_from_doc(doc["rwset"]),
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
            },
            "txs": [tx_to_doc(tx) for tx in block.transactions],
            "codes": [code.value for code in block.validation_codes],
        }


def block_from_doc(doc: dict) -> Block:
    with profiled("serialize.block_codec"):
        header = doc["header"]
        return Block(
            header=BlockHeader(
                number=int(header["number"]),
                previous_hash=header["previous_hash"],
                data_hash=header["data_hash"],
                timestamp=float(header["timestamp"]),
            ),
            transactions=tuple(tx_from_doc(tx) for tx in doc["txs"]),
            validation_codes=tuple(ValidationCode(code) for code in doc["codes"]),
        )
