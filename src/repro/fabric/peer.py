"""Peers: the nodes that endorse proposals and commit blocks.

A peer owns a full copy of the ledger (block store + world state), the
installed chaincodes, and an endorsing identity. Two roles, as in Fabric:

* **Endorsement** (:meth:`Peer.endorse`): simulate the proposal against the
  current state, capture the read/write set, sign the result. Nothing is
  committed.
* **Commit** (:meth:`Peer.commit_block`): validate every transaction in an
  ordered block — creator identity and signature, endorsement signatures and
  policy, duplicate tx-id, then MVCC read-version checks (including
  conflicts against earlier transactions *in the same block*) — and apply
  the writes of valid transactions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import (
    ChaincodeError,
    ChaincodeNotFoundError,
    FabricError,
    IdentityError,
    SignatureError,
)
from repro.fabric.chaincode import ChaincodeDefinition, ChaincodeRegistry, ChaincodeStub
from repro.fabric.identity import Identity
from repro.fabric.privatedata import (
    CollectionRegistry,
    PrivateStateStore,
    private_hash_key,
)
from repro.fabric.ledger import Block, BlockStore
from repro.fabric.msp import MSPRegistry
from repro.fabric.tx import (
    Endorsement,
    ProposalResponse,
    Transaction,
    TxProposal,
    ValidationCode,
    endorsement_payload,
)
from repro.fabric.worldstate import Version, WorldState
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span


@dataclass
class PeerStats:
    endorsements: int = 0
    endorsement_failures: int = 0
    blocks_committed: int = 0
    txs_valid: int = 0
    txs_invalid: int = 0


class Peer:
    """One endorsing/committing peer."""

    def __init__(
        self,
        name: str,
        identity: Identity,
        msp_registry: MSPRegistry,
        collections: CollectionRegistry | None = None,
    ) -> None:
        self.name = name
        self.identity = identity
        self.msp_registry = msp_registry
        self.world = WorldState()
        self.ledger = BlockStore()
        self.chaincodes = ChaincodeRegistry()
        self.collections = collections or CollectionRegistry()
        self.private = PrivateStateStore(org=identity.org, registry=self.collections)
        self.online = True
        self.stats = PeerStats()
        # Runtime sanitizer hook (repro.analysis.runtime.Sanitizer); None in
        # normal operation — set by install_sanitizers for checked runs.
        self.sanitizer = None
        # Durability hook (repro.storage.persistence.DurabilityManager);
        # None when the run is purely in-memory.
        self.journal = None
        # Secondary index (repro.index.PeerIndex); attached by an
        # IndexManager, advanced after each block's writes are applied.
        self.index = None

    @property
    def org(self) -> str:
        return self.identity.org

    def install_chaincode(self, definition: ChaincodeDefinition) -> None:
        self.chaincodes.install(definition)

    # ------------------------------------------------------------------
    # Endorsement
    # ------------------------------------------------------------------

    def _make_stub(self, proposal: TxProposal, chaincode_name: str) -> ChaincodeStub:
        def invoker(cc_name: str, fn: str, args: list[str], stub: ChaincodeStub) -> str:
            definition = self.chaincodes.get(cc_name)
            # The nested call shares the caller's stub so its reads/writes
            # land in the same transaction rwset.
            return definition.chaincode.dispatch(stub, fn, args)

        return ChaincodeStub(
            world=self.world,
            tx_id=proposal.tx_id,
            creator=proposal.creator,
            timestamp=proposal.timestamp,
            chaincode_name=chaincode_name,
            invoker=invoker,
            private=self.private,
            collections=self.collections,
            transient=proposal.transient_map(),
        )

    def endorse(self, proposal: TxProposal) -> ProposalResponse:
        """Simulate and sign. Raises :class:`FabricError` subclasses for
        requests that should never have reached this peer (bad identity,
        unknown chaincode); chaincode-level failures return an unendorsed
        failure response instead, as Fabric does."""
        with obs_span("fabric.peer.endorse") as sp:
            sp.set_attr("peer", self.name)
            sp.set_attr("chaincode", proposal.chaincode)
            with profiled("endorse.process"):
                response = self._endorse_inner(proposal)
            if self.sanitizer is not None:
                self.sanitizer.check_endorsement(self, proposal, response)
            return response

    def _endorse_inner(self, proposal: TxProposal) -> ProposalResponse:
        if not self.online:
            raise FabricError(f"peer {self.name!r} is offline")
        self.msp_registry.verify_signature(
            proposal.creator, proposal.signing_payload(), proposal.signature
        )
        definition = self.chaincodes.get(proposal.chaincode)
        stub = self._make_stub(proposal, proposal.chaincode)
        try:
            with profiled("endorse.simulate"):
                response = definition.chaincode.dispatch(stub, proposal.fn, list(proposal.args))
            success, message = True, ""
        except ChaincodeError as exc:
            self.stats.endorsement_failures += 1
            response, success, message = json.dumps(None), False, str(exc)
        self.stats.endorsements += 1
        return ProposalResponse(
            tx_id=proposal.tx_id,
            rwset=stub.rwset(),
            response=response,
            success=success,
            message=message,
            endorsement=Endorsement(endorser=self.identity.info(), signature=b""),
            events=stub.events(),
            private_data=stub.private_writes(),
        ).endorsed_by(self.identity)

    def resimulate(self, proposal: TxProposal) -> tuple:
        """Re-run a proposal's simulation on a fresh stub — no signing, no
        stats. Simulation buffers all writes in the stub, so this is
        side-effect-free; the divergence sanitizer diffs the outcome
        against the original endorsement to expose nondeterminism a
        single-endorser policy would never surface."""
        definition = self.chaincodes.get(proposal.chaincode)
        stub = self._make_stub(proposal, proposal.chaincode)
        try:
            response = definition.chaincode.dispatch(
                stub, proposal.fn, list(proposal.args)
            )
            success = True
        except ChaincodeError:
            response, success = json.dumps(None), False
        return stub.rwset(), response, success

    # ------------------------------------------------------------------
    # Validation + commit
    # ------------------------------------------------------------------

    def _validate_tx(
        self,
        tx: Transaction,
        block_number: int,
        written_this_block: dict[str, Version],
        consensus_rejected: frozenset[str],
    ) -> ValidationCode:
        with profiled("fabric.validate"):
            return self._validate_tx_inner(
                tx, block_number, written_this_block, consensus_rejected
            )

    def _validate_tx_inner(
        self,
        tx: Transaction,
        block_number: int,
        written_this_block: dict[str, Version],
        consensus_rejected: frozenset[str],
    ) -> ValidationCode:
        if tx.tx_id in consensus_rejected:
            return ValidationCode.REJECTED_BY_CONSENSUS
        if self.ledger.has_tx(tx.tx_id):
            return ValidationCode.DUPLICATE_TXID
        # Creator identity and proposal signature.
        try:
            self.msp_registry.verify_signature(
                tx.proposal.creator, tx.proposal.signing_payload(), tx.proposal.signature
            )
        except IdentityError:
            return ValidationCode.BAD_IDENTITY
        except SignatureError:
            return ValidationCode.BAD_SIGNATURE
        # Endorsement signatures: each must sign this exact rwset+response.
        payload = endorsement_payload(tx)
        valid_orgs: set[str] = set()
        for endorsement in tx.endorsements:
            try:
                self.msp_registry.validate_identity(endorsement.endorser)
                endorsement.endorser.public_key.verify(payload, endorsement.signature)
            except (IdentityError, SignatureError):
                continue  # an invalid endorsement simply doesn't count
            valid_orgs.add(endorsement.endorser.org)
        try:
            definition = self.chaincodes.get(tx.proposal.chaincode)
        except ChaincodeNotFoundError:
            return ValidationCode.CHAINCODE_ERROR
        if not definition.policy.satisfied_by(valid_orgs):
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        # MVCC: every read version must still be current, considering both
        # the committed state and writes earlier in this very block.
        for read in tx.rwset.reads:
            current = written_this_block.get(read.key, self.world.get_version(read.key))
            if current != read.version:
                return ValidationCode.MVCC_READ_CONFLICT
        return ValidationCode.VALID

    def commit_block(self, block: Block, consensus_rejected: frozenset[str] = frozenset()) -> Block:
        """Validate and commit an ordered block; returns the block annotated
        with validation codes (identical on every honest peer)."""
        with obs_span("fabric.peer.commit") as sp:
            sp.set_attr("peer", self.name)
            sp.set_attr("block", block.number)
            with profiled("fabric.commit"):
                annotated = self._commit_block_inner(block, consensus_rejected)
            if self.sanitizer is not None:
                self.sanitizer.check_commit(self, annotated)
            if self.journal is not None:
                self.journal.record_commit(self, annotated, consensus_rejected)
            return annotated

    def _commit_block_inner(
        self, block: Block, consensus_rejected: frozenset[str] = frozenset()
    ) -> Block:
        if not self.online:
            raise FabricError(f"peer {self.name!r} is offline")
        codes: list[ValidationCode] = []
        written_this_block: dict[str, Version] = {}
        staged: list[tuple[int, Transaction]] = []
        for tx_num, tx in enumerate(block.transactions):
            code = self._validate_tx(tx, block.number, written_this_block, consensus_rejected)
            codes.append(code)
            if code is ValidationCode.VALID:
                staged.append((tx_num, tx))
                version = Version(block=block.number, tx=tx_num)
                for write in tx.rwset.writes:
                    written_this_block[write.key] = version
        annotated = block.with_validation(codes)
        self.ledger.append(annotated)
        with profiled("state.apply"):
            for tx_num, tx in staged:
                version = Version(block=block.number, tx=tx_num)
                for write in tx.rwset.writes:
                    self.world.apply_write(
                        key=write.key,
                        value=None if write.is_delete else write.value,
                        version=version,
                        tx_id=tx.tx_id,
                        timestamp=block.header.timestamp,
                    )
                self._apply_private(tx, version, block.header.timestamp)
        # Index after ledger append + state writes: a block the ledger
        # rejects must never advance the index.
        if self.index is not None:
            with profiled("index.apply"):
                self.index.apply_block(annotated)
        self.stats.blocks_committed += 1
        self.stats.txs_valid += len(staged)
        self.stats.txs_invalid += len(block.transactions) - len(staged)
        return annotated

    def _apply_private(self, tx: Transaction, version: Version, timestamp: float) -> None:
        """Store private payloads this peer's org is entitled to, after
        verifying each against its on-chain hash."""
        for pw in tx.private_data:
            if not self.private.has_collection(pw.collection):
                continue  # not a member: the payload is not for us
            on_chain = self.world.get(private_hash_key(pw.collection, pw.key))
            if on_chain is None or on_chain.decode() != pw.value_hash():
                # Payload doesn't match what was endorsed — drop it rather
                # than poison the side DB (Fabric purges such payloads too).
                continue
            self.private.store_for(pw.collection).apply_write(
                key=pw.key,
                value=pw.value,
                version=version,
                tx_id=tx.tx_id,
                timestamp=timestamp,
            )

    # ------------------------------------------------------------------
    # Queries (read-only, no ordering — the paper's gas-free read path)
    # ------------------------------------------------------------------

    def query(self, proposal: TxProposal) -> str:
        """Execute a read-only invocation; writes are discarded."""
        if not self.online:
            raise FabricError(f"peer {self.name!r} is offline")
        self.msp_registry.verify_signature(
            proposal.creator, proposal.signing_payload(), proposal.signature
        )
        definition = self.chaincodes.get(proposal.chaincode)
        stub = self._make_stub(proposal, proposal.chaincode)
        with profiled("endorse.simulate"):
            return definition.chaincode.dispatch(stub, proposal.fn, list(proposal.args))
