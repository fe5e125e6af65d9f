"""Exact block <-> document codec for the write-ahead log.

The WAL stores whole blocks as canonical-JSON documents. The round trip
must be *exact*: a decoded block's transaction envelopes have to hash to
the same Merkle root and its header to the same chain hash, or replay
would be rejected by the very validation it is meant to satisfy. Every
``bytes`` field is hex-encoded (canonical JSON refuses raw bytes), and
tuples are rebuilt on decode so frozen dataclass equality holds.

The batch and block records are written out directly, and each
transaction's document once per transaction object (:func:`tx_json`), so
the orderer's batch record and every peer's block record share its bytes.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring as _enc

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
from repro.util.serialization import canonical_json, once


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


# -- WAL records: canonical_json of the *_to_doc documents, written out in key
# order, since every committed transaction passes through three of them.


def _json(value) -> str:
    """``canonical_json(value)`` as text, rendering only what is no string,
    ``None`` or finite float."""
    if type(value) is str:
        return _enc(value)
    if value is None:
        return "null"
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return canonical_json(value).decode()


def _identity_json(identity: IdentityInfo) -> str:
    return (
        f'{{"name":{_enc(identity.name)},"org":{_enc(identity.org)},'
        f'"public_key":{_enc(identity.public_key_hex)},"role":{_enc(identity.role.value)}}}'
    )


def _render_tx(tx: Transaction) -> bytes:
    proposal, rwset = tx.proposal, tx.rwset
    endorsements = ",".join(
        f'{{"endorser":{_identity_json(e.endorser)},"sig":"{e.signature.hex()}"}}'
        for e in tx.endorsements
    )
    events = ",".join(
        f'{{"chaincode":{_enc(ev.chaincode)},"name":{_enc(ev.name)},'
        f'"payload":{_json(ev.payload)}}}'
        for ev in tx.events
    )
    reads = ",".join(
        f'[{_enc(r.key)},{{"block":{r.version.block},"tx":{r.version.tx}}}]'
        if r.version is not None else f"[{_enc(r.key)},null]"
        for r in rwset.reads
    )
    writes = ",".join(
        f'[{_enc(w.key)},{"null" if w.value is None else _enc(w.value.hex())},'
        f'{"true" if w.is_delete else "false"}]'
        for w in rwset.writes
    )
    return (
        f'{{"endorsements":[{endorsements}],"events":[{events}],"proposal":{{'
        f'"args":[{",".join(map(_json, proposal.args))}],'
        f'"chaincode":{_enc(proposal.chaincode)},"channel":{_enc(proposal.channel)},'
        f'"creator":{_identity_json(proposal.creator)},"fn":{_enc(proposal.fn)},'
        f'"signature":"{proposal.signature.hex()}","timestamp":{_json(proposal.timestamp)},'
        f'"tx_id":{_enc(proposal.tx_id)}}},"response":{_json(tx.response)},'
        f'"rwset":{{"reads":[{reads}],"writes":[{writes}]}}}}'
    ).encode()


def tx_json(tx: Transaction) -> bytes:
    """``canonical_json(tx_to_doc(tx))``, written once per transaction object."""
    return once(tx, "tx_json", lambda: _render_tx(tx))


def batch_record(request_id: str, txs) -> bytes:
    """``canonical_json({"type": "batch", "request_id": ..., "txs": [doc, ...]})``."""
    head = f'{{"request_id":{_enc(request_id)},"txs":['.encode()
    return head + b",".join(tx_json(tx) for tx in txs) + b'],"type":"batch"}'


def block_record(block: Block, rejected: list[str], index_epoch: str | None) -> bytes:
    """``canonical_json({"type": "block", "block": block_to_doc(block),
    "rejected": rejected, "index_epoch": index_epoch})``."""
    header = block.header
    codes = ",".join(_enc(code.value) for code in block.validation_codes)
    head = (
        f'{{"block":{{"codes":[{codes}],"header":{{'
        f'"data_hash":{_enc(header.data_hash)},"number":{header.number},'
        f'"previous_hash":{_enc(header.previous_hash)},'
        f'"timestamp":{_json(header.timestamp)}}},"txs":['
    )
    tail = (
        f']}},"index_epoch":{_json(index_epoch)},'
        f'"rejected":[{",".join(map(_enc, rejected))}],"type":"block"}}'
    )
    txs = b",".join(tx_json(tx) for tx in block.transactions)
    return head.encode() + txs + tail.encode()


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
