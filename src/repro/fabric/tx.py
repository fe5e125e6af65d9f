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
payload, envelope, rwset digest) is computed by the first node that asks and
remembered while the transaction is in flight
(:func:`repro.util.serialization.once`); build-then-sign hands the signed
value the bytes that were signed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.fabric.identity import Identity, IdentityInfo
from repro.fabric.worldstate import Version
from repro.obs.prof import profiled
from repro.util.serialization import canonical_json, once


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
            "value": self.value.hex() if self.value is not None else None,
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

    def digest(self) -> str:
        return once(
            self,
            "digest",
            lambda: hashlib.sha256(canonical_json(self.to_dict())).hexdigest(),
        )


@dataclass(frozen=True)
class TxProposal:
    """A client's signed request to execute chaincode.

    ``transient`` carries sensitive inputs (private-collection payloads)
    that must never appear on the ledger: it is excluded from the signing
    payload and hence from every block hash, exactly like Fabric's
    transient map.
    """

    tx_id: str
    channel: str
    chaincode: str
    fn: str
    args: tuple[str, ...]
    creator: IdentityInfo
    timestamp: float
    signature: bytes = b""
    transient: tuple[tuple[str, bytes], ...] = ()

    def transient_map(self) -> dict[str, bytes]:
        return dict(self.transient)

    def _signing_payload(self) -> bytes:
        return canonical_json(
            {
                "tx_id": self.tx_id,
                "channel": self.channel,
                "chaincode": self.chaincode,
                "fn": self.fn,
                "args": list(self.args),
                "creator": self.creator.to_dict(),
                "timestamp": self.timestamp,
            }
        )

    def signing_payload(self) -> bytes:
        return once(self, "signing_payload", self._signing_payload)

    def signed_by(self, identity: Identity) -> "TxProposal":
        """This proposal carrying ``identity``'s signature. The signature is
        not part of the signing payload, so the signed value remembers the
        bytes that were signed instead of serialising them again."""
        payload = self._signing_payload()
        signed = replace(self, signature=identity.sign(payload))
        once(signed, "signing_payload", lambda: payload)
        return signed

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
    # Private-collection payloads from simulation; their hashes are in the
    # (signed) rwset, the payloads themselves travel out-of-band.
    private_data: tuple["PrivateWrite", ...] = ()

    def endorsed_by(self, identity: Identity) -> "ProposalResponse":
        """This simulation result carrying ``identity``'s endorsement; the
        endorsed value remembers the payload that was signed."""
        payload = _endorsement_payload(self)
        signed = replace(
            self,
            endorsement=Endorsement(
                endorser=identity.info(), signature=identity.sign(payload)
            ),
        )
        once(signed, "endorsement_payload", lambda: payload)
        return signed


@dataclass(frozen=True)
class PrivateWrite:
    """One private-collection write: the payload travels to member-org
    peers only; the public rwset carries just its hash (HLF private data)."""

    collection: str
    key: str
    value: bytes

    def value_hash(self) -> str:
        return hashlib.sha256(self.value).hexdigest()


@dataclass(frozen=True)
class Transaction:
    """Proposal + endorsements, as submitted to the ordering service."""

    proposal: TxProposal
    rwset: ReadWriteSet
    response: str
    endorsements: tuple[Endorsement, ...]
    events: tuple["ChaincodeEvent", ...] = ()
    # Private payloads; NOT part of the envelope/block hash — only their
    # hashes (inside the public rwset) are, exactly as in Fabric.
    private_data: tuple[PrivateWrite, ...] = ()

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
            private_data=first.private_data,
        )
        if first.success and first.tx_id == tx.tx_id:
            once(tx, "endorsement_payload", lambda: endorsement_payload(first))
        return tx

    @property
    def tx_id(self) -> str:
        return self.proposal.tx_id

    def endorsing_orgs(self) -> set[str]:
        return {e.endorser.org for e in self.endorsements}

    def envelope_bytes(self) -> bytes:
        """Canonical bytes of the full transaction (hashed into blocks)."""
        return once(self, "envelope_bytes", self._envelope_bytes)

    def _envelope_bytes(self) -> bytes:
        with profiled("serialize.envelope"):
            return canonical_json(
                {
                    "proposal": self.proposal.signing_payload().decode("utf-8"),
                    "proposal_sig": self.proposal.signature.hex(),
                    "rwset": self.rwset.to_dict(),
                    "response": self.response,
                    "endorsements": [
                        {"endorser": e.endorser.to_dict(), "sig": e.signature.hex()}
                        for e in self.endorsements
                    ],
                    "events": [ev.to_dict() for ev in self.events],
                }
            )


def _endorsement_payload(signed: ProposalResponse | Transaction) -> bytes:
    return canonical_json(
        {
            "tx_id": signed.tx_id,
            "rwset": signed.rwset.to_dict(),
            "response": signed.response,
            # Only successful simulations are assembled into transactions.
            "success": getattr(signed, "success", True),
        }
    )


def endorsement_payload(signed: ProposalResponse | Transaction) -> bytes:
    """The bytes an endorser signs, binding the tx id, the read/write set,
    the chaincode response and whether simulation succeeded — asked of the
    endorser's own :class:`ProposalResponse` or of the :class:`Transaction`
    assembled from it, whose every endorser must have signed exactly this."""
    return once(signed, "endorsement_payload", lambda: _endorsement_payload(signed))


@dataclass(frozen=True)
class ChaincodeEvent:
    """An application event emitted during chaincode execution."""

    chaincode: str
    name: str
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"chaincode": self.chaincode, "name": self.name, "payload": self.payload}
