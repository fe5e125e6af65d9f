"""Transaction structures: proposals, endorsements, envelopes, rwsets.

The execute-order-validate flow is carried by three structures:

* :class:`TxProposal` — a signed client request to run a chaincode function.
* :class:`ProposalResponse` — one endorsing peer's simulation result: the
  read/write set it produced, the chaincode's return value, and the peer's
  signature over all of it.
* :class:`Transaction` — the proposal plus a set of endorsements, submitted
  to ordering; validated and committed by every peer.

:class:`ReadWriteSet` records each read key with the version observed at
simulation time and each written key with its new value; equality of rwsets
across endorsers is what lets the client detect non-deterministic chaincode.

All of these are frozen, so each canonical form (signing payload, endorsed
payload, envelope, rwset) is computed by the first node that asks and
remembered while the transaction is in flight
(:func:`repro.util.serialization.once`). A signed value is constructed once
(:meth:`TxProposal.signed`, :meth:`ProposalResponse.endorsed`) and handed the
bytes that were signed; the proposal's, of a fixed shape, are rendered
unchecked. The rwset and the signed proposal are rendered once per object and
spliced into the forms that hold them as bytes.
The envelope is a transaction's one stored form (blocks hash it, the WAL
writes it), and a written value is its UTF-8 text in every form. A
signature's verdict over a remembered payload is a form too
(:meth:`TxProposal.signature_error`, :meth:`Transaction.endorsement_verdicts`):
the endorsing peers, the four validators and the committing peers share one
check per signature. Whether the signer is still a member is not a form; the
MSP is asked every time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

from repro.errors import EncodingError, SignatureError
from repro.fabric.identity import Identity, IdentityInfo
from repro.fabric.worldstate import Version
from repro.obs.prof import profiled
from repro.util.serialization import (
    canonical_json, canonical_json_splice, once, render, value_to_json,
)


class ValidationCode(str, Enum):
    """Per-transaction commit outcome, recorded in block metadata."""

    VALID = "VALID"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"
    BAD_SIGNATURE = "BAD_SIGNATURE"
    BAD_IDENTITY = "BAD_IDENTITY"
    MISMATCHED_RWSETS = "MISMATCHED_RWSETS"
    CHAINCODE_ERROR = "CHAINCODE_ERROR"
    REJECTED_BY_CONSENSUS = "REJECTED_BY_CONSENSUS"
    DUPLICATE_TXID = "DUPLICATE_TXID"


@dataclass(frozen=True)
class ReadEntry:
    key: str
    version: Version | None  # None: the key did not exist at read time

    def to_dict(self) -> dict:
        return {"key": self.key, "version": self.version.to_dict() if self.version else None}


@dataclass(frozen=True)
class WriteEntry:
    key: str
    value: bytes | None  # None marks a delete
    is_delete: bool = False

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "value": value_to_json(self.value) if self.value is not None else None,
            "is_delete": self.is_delete,
        }


@dataclass(frozen=True)
class ReadWriteSet:
    reads: tuple[ReadEntry, ...] = ()
    writes: tuple[WriteEntry, ...] = ()

    def to_dict(self) -> dict:
        return {
            "reads": [r.to_dict() for r in self.reads],
            "writes": [w.to_dict() for w in self.writes],
        }

    def canonical(self) -> bytes:
        """``canonical_json(self.to_dict())``, rendered once per rwset
        object: the digest hashes it, and the endorsement payload and the
        envelope splice it in rather than render the rwset again; its
        fields are JSON's by construction, so it is rendered unchecked."""
        return once(self, "canonical", lambda: canonical_json(self.to_dict(), checked=False))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical()).hexdigest()


@dataclass(frozen=True)
class TxProposal:
    """A client's signed request to execute chaincode."""

    tx_id: str
    channel: str
    chaincode: str
    fn: str
    args: tuple[str, ...]
    creator: IdentityInfo
    timestamp: float
    signature: bytes = b""

    @classmethod
    def signed(
        cls, identity: Identity, *, tx_id: str, channel: str, chaincode: str, fn: str,
        args: tuple[str, ...], timestamp: float,
    ) -> "TxProposal":
        """The proposal of these fields with ``identity`` as its creator and
        signer, constructed once; it remembers the bytes that were signed."""
        creator = identity.info()
        payload = _proposal_payload(tx_id, channel, chaincode, fn, args, creator, timestamp)
        proposal = cls(
            tx_id, channel, chaincode, fn, args, creator, timestamp, identity.sign(payload)
        )
        once(proposal, "signing_payload", lambda: payload)
        return proposal

    def signing_payload(self) -> bytes:
        return once(
            self,
            "signing_payload",
            lambda: _proposal_payload(
                self.tx_id, self.channel, self.chaincode, self.fn, self.args,
                self.creator, self.timestamp,
            ),
        )

    def signature_error(self) -> str | None:
        """Why the creator's signature does not verify over
        :meth:`signing_payload`, or ``None`` when it does."""
        return once(self, "signature_error", self._signature_error)

    def _signature_error(self) -> str | None:
        try:
            self.creator.public_key.verify(self.signing_payload(), self.signature)
        except SignatureError as exc:
            return str(exc)
        return None

    @staticmethod
    def make_tx_id(creator: IdentityInfo, nonce: bytes) -> str:
        return hashlib.sha256(
            nonce + creator.public_key_hex.encode() + creator.name.encode()
        ).hexdigest()


@dataclass(frozen=True)
class Endorsement:
    """One peer's signature over a proposal response payload."""

    endorser: IdentityInfo
    signature: bytes


@dataclass(frozen=True)
class ProposalResponse:
    """An endorsing peer's simulation result."""

    tx_id: str
    rwset: ReadWriteSet
    response: str  # chaincode return value (JSON string)
    success: bool
    message: str
    endorsement: Endorsement
    # Chaincode events captured during simulation. Not covered by the
    # endorsement signature (as in Fabric, events ride in the tx envelope).
    events: tuple["ChaincodeEvent", ...] = ()

    @classmethod
    def endorsed(
        cls, identity: Identity, *, tx_id: str, rwset: ReadWriteSet, response: str,
        success: bool, message: str, events: tuple["ChaincodeEvent", ...],
    ) -> "ProposalResponse":
        """This simulation result under ``identity``'s endorsement,
        constructed once; it remembers the payload that was signed."""
        payload = _endorsement_payload(tx_id, rwset, response, success)
        endorsement = Endorsement(endorser=identity.info(), signature=identity.sign(payload))
        signed = cls(tx_id, rwset, response, success, message, endorsement, events)
        once(signed, "endorsement_payload", lambda: payload)
        return signed


@dataclass(frozen=True)
class Transaction:
    """Proposal + endorsements, as submitted to the ordering service."""

    proposal: TxProposal
    rwset: ReadWriteSet
    response: str
    endorsements: tuple[Endorsement, ...]
    events: tuple["ChaincodeEvent", ...] = ()

    @classmethod
    def from_responses(
        cls, proposal: TxProposal, responses: list[ProposalResponse]
    ) -> "Transaction":
        """The first response's simulation result under every endorser's
        signature. What its endorsers must have signed is what the first of
        them did sign, so that payload is handed over, not rebuilt."""
        first = responses[0]
        tx = cls(
            proposal=proposal,
            rwset=first.rwset,
            response=first.response,
            endorsements=tuple(r.endorsement for r in responses),
            events=first.events,
        )
        if first.success and first.tx_id == tx.tx_id:
            once(tx, "endorsement_payload", lambda: endorsement_payload(first))
        return tx

    @property
    def tx_id(self) -> str:
        return self.proposal.tx_id

    def endorsement_verdicts(self) -> tuple[bool, ...]:
        """Whether each endorser's signature verifies over
        ``endorsement_payload(self)``, in endorsement order."""
        return once(self, "endorsement_verdicts", self._endorsement_verdicts)

    def _endorsement_verdicts(self) -> tuple[bool, ...]:
        payload = endorsement_payload(self)
        return tuple(
            e.endorser.public_key.is_valid(payload, e.signature) for e in self.endorsements
        )

    def envelope_bytes(self) -> bytes:
        """Canonical bytes of the full transaction (hashed into blocks)."""
        return once(self, "envelope_bytes", self._envelope_bytes)

    def _envelope_bytes(self) -> bytes:
        with profiled("serialize.envelope"):
            return canonical_json_splice(
                {
                    "proposal_sig": self.proposal.signature.hex(),
                    "response": self.response,
                    "endorsements": [
                        {"endorser": e.endorser.to_dict(), "sig": e.signature.hex()}
                        for e in self.endorsements
                    ],
                    "events": [ev.to_dict() for ev in self.events],
                },
                {"proposal": self.proposal.signing_payload(), "rwset": self.rwset.canonical()},
            )


def _proposal_payload(
    tx_id: str, channel: str, chaincode: str, fn: str, args: tuple[str, ...],
    creator: IdentityInfo, timestamp: float,
) -> bytes:
    """``canonical_json`` of the proposal's fields with the creator as its
    dict, rendered unchecked: the shape is fixed and every leaf is a string
    but the timestamp, a finite float (or an int). Anything else (a non-``str``
    field, a NaN timestamp, a lone surrogate) raises :class:`EncodingError`."""
    with profiled("serialize.proposal"):
        if type(timestamp) is float:
            if not math.isfinite(timestamp):
                raise EncodingError("NaN/Inf are not canonically serializable")
        elif type(timestamp) is not int:
            raise EncodingError(f"timestamp is a {type(timestamp).__name__}, not a number")
        if not all(map(isinstance, (tx_id, channel, chaincode, fn, *args), repeat(str))):
            raise EncodingError("proposal is not canonically serializable: a field is no str")
        return render({
            "args": args, "chaincode": chaincode, "channel": channel, "creator": creator.to_dict(),
            "fn": fn, "timestamp": timestamp, "tx_id": tx_id,
        })


def _endorsement_payload(tx_id: str, rwset: ReadWriteSet, response: str, success: bool) -> bytes:
    return canonical_json_splice(
        {"tx_id": tx_id, "response": response, "success": success},
        {"rwset": rwset.canonical()},
    )


def endorsement_payload(signed: ProposalResponse | Transaction) -> bytes:
    """The bytes an endorser signs, binding the tx id, the read/write set,
    the chaincode response and whether simulation succeeded — asked of the
    endorser's own :class:`ProposalResponse` or of the :class:`Transaction`
    assembled from it, whose every endorser must have signed exactly this."""
    return once(
        signed,
        "endorsement_payload",
        # Only successful simulations are assembled into transactions.
        lambda: _endorsement_payload(
            signed.tx_id, signed.rwset, signed.response, getattr(signed, "success", True)
        ),
    )


@dataclass(frozen=True)
class ChaincodeEvent:
    """An application event emitted during chaincode execution."""

    chaincode: str
    name: str
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"chaincode": self.chaincode, "name": self.name, "payload": self.payload}
