"""Ordering services: turn endorsed transactions into a block stream.

Two implementations behind one interface:

* :class:`SoloOrderer` — a single sequencer with batch cutting by count or
  explicit flush. Fabric's dev-mode orderer; the "without consensus cost"
  baseline in ablations.
* :class:`BftOrderer` — runs transactions through a PBFT validator
  cluster (:class:`repro.consensus.BftCluster`) before they are ordered, the
  configuration the paper describes: validators independently re-verify each
  transaction (endorsement signatures + policy) and vote; a transaction
  needs a 2/3 quorum of valid votes, and rejected transactions are still
  ordered into blocks flagged ``REJECTED_BY_CONSENSUS`` so the audit trail
  shows what was refused and why.

  Consensus is *batched*: ``submit`` only queues the transaction, and one
  PBFT instance runs per cut block — the batch digest is what replicas
  agree on, with per-transaction validity votes carried inside the
  prepare/commit messages. ``submit`` therefore no longer implies a
  decision; ``flush`` drives the cluster until every queued batch decides.
  Consensus messages per committed transaction drop by roughly the batch
  factor, which is what makes ``max_batch_size`` a real throughput lever.

Orderers do not execute chaincode and never touch the world state — they
sequence opaque envelopes, exactly as in Fabric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.consensus.bft import Behaviour, BftCluster, Decision
from repro.consensus.messages import ClientRequest
from repro.errors import OrderingError
from repro.fabric.ledger import Block, GENESIS_PREVIOUS_HASH
from repro.fabric.tx import Transaction, endorsement_payload
from repro.net import SimNetwork
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span
from repro.util.clock import Clock, WallClock

# A delivery callback receives the cut block plus the tx ids the consensus
# rejected (empty for solo ordering).
DeliverFn = Callable[[Block, frozenset[str]], None]


class Orderer(Protocol):
    def submit(self, tx: Transaction) -> None: ...
    def flush(self) -> None: ...
    def register_delivery(self, deliver: DeliverFn) -> None: ...


class _BatchCutter:
    """Shared batching + hash-chain bookkeeping for both orderers."""

    def __init__(self, max_batch_size: int, clock: Clock) -> None:
        if max_batch_size < 1:
            raise OrderingError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self.clock = clock
        self._pending: list[Transaction] = []
        self._pending_rejected: set[str] = set()
        self._next_number = 0
        self._prev_hash = GENESIS_PREVIOUS_HASH
        self._delivery: list[DeliverFn] = []
        self.blocks_cut = 0
        self.txs_ordered = 0

    def register_delivery(self, deliver: DeliverFn) -> None:
        self._delivery.append(deliver)

    def enqueue(self, tx: Transaction, rejected: bool) -> None:
        self._pending.append(tx)
        if rejected:
            self._pending_rejected.add(tx.tx_id)
        if len(self._pending) >= self.max_batch_size:
            self.cut()

    def cut(self) -> None:
        if not self._pending:
            return
        block = Block.build(
            number=self._next_number,
            previous_hash=self._prev_hash,
            transactions=tuple(self._pending),
            timestamp=self.clock.now(),
        )
        rejected = frozenset(self._pending_rejected)
        self._pending = []
        self._pending_rejected = set()
        self._next_number += 1
        self._prev_hash = block.header.hash()
        self.blocks_cut += 1
        self.txs_ordered += len(block.transactions)
        for deliver in self._delivery:
            deliver(block, rejected)


class SoloOrderer:
    """Single-node sequencer (no fault tolerance, no validation)."""

    def __init__(self, max_batch_size: int = 1, clock: Clock | None = None) -> None:
        self._cutter = _BatchCutter(max_batch_size, clock or WallClock())
        # Durability hook (repro.storage.persistence.DurabilityManager).
        self.journal = None

    def submit(self, tx: Transaction) -> None:
        with obs_span("fabric.order") as sp:
            sp.set_attr("orderer", "solo")
            sp.set_attr("tx_id", tx.tx_id)
            if self.journal is not None:
                self.journal.record_submit(tx)
            self._cutter.enqueue(tx, rejected=False)

    def flush(self) -> None:
        self._cutter.cut()

    def register_delivery(self, deliver: DeliverFn) -> None:
        self._cutter.register_delivery(deliver)

    @property
    def blocks_cut(self) -> int:
        return self._cutter.blocks_cut

    @property
    def txs_ordered(self) -> int:
        return self._cutter.txs_ordered


def default_tx_validator(tx: Transaction) -> bool:
    """What each BFT validator independently checks before voting *valid*:
    every endorsement signature verifies over the transaction's rwset and
    response — the "assesses the digital signatures attached to the data"
    check from the paper's §III."""
    if not tx.endorsements:
        return False
    payload = endorsement_payload(tx)
    for endorsement in tx.endorsements:
        if not endorsement.endorser.public_key.is_valid(payload, endorsement.signature):
            return False
    return True


@dataclass(frozen=True)
class TxDecision:
    """Per-transaction view of one batched consensus :class:`Decision`.

    The trust engine reads ``votes``/``accepted`` per transaction; this
    projects item ``index`` of the batch decision. Vote dictionaries are
    *live* views: straggler commits keep enriching the underlying batch
    decision's vote record, and those late votes show up here too.
    """

    tx_id: str
    index: int
    batch: Decision

    @property
    def seq(self) -> int:
        return self.batch.seq

    @property
    def view(self) -> int:
        return self.batch.view

    @property
    def accepted(self) -> bool:
        items = self.batch.item_accepted
        return items[self.index] if items else self.batch.accepted

    @property
    def votes(self) -> dict[str, bool]:
        if self.batch.item_votes:
            return {
                replica: verdicts[self.index]
                for replica, verdicts in self.batch.item_votes.items()
                if self.index < len(verdicts)
            }
        return dict(self.batch.votes)

    @property
    def valid_votes(self) -> int:
        return sum(1 for v in self.votes.values() if v)

    @property
    def invalid_votes(self) -> int:
        votes = self.votes
        return len(votes) - sum(1 for v in votes.values() if v)


class BftOrderer:
    """Ordering via a PBFT validator cluster, amortized over blocks.

    ``submit`` queues the transaction; once ``max_batch_size`` transactions
    accumulate (or ``flush`` is called) the whole batch becomes *one* BFT
    consensus instance. The digest replicas agree on covers every envelope
    hash in the batch, and each replica's prepare/commit vote carries one
    ``validator(tx)`` verdict per transaction, so per-transaction
    acceptance (and ``REJECTED_BY_CONSENSUS`` flagging) is decided exactly
    as in the one-instance-per-transaction configuration. Decisions are
    collected from the first replica to decide (all honest replicas decide
    identically — that is the BFT guarantee, separately tested in the
    consensus suite).

    ``submit`` is asynchronous: it never drives the validator network.
    ``flush`` runs the network until every in-flight batch decides, then
    cuts the final (possibly partial) block.
    """

    def __init__(
        self,
        n_validators: int = 4,
        max_batch_size: int = 1,
        clock: Clock | None = None,
        validator: Callable[[Transaction], bool] | None = None,
        behaviours: dict[str, Behaviour] | None = None,
        network: SimNetwork | None = None,
        checkpoint_interval: int = 0,
    ) -> None:
        self._cutter = _BatchCutter(max_batch_size, clock or WallClock())
        # Durability hook (repro.storage.persistence.DurabilityManager).
        self.journal = None
        self._txs: dict[str, Transaction] = {}
        self._queue: list[str] = []  # tx ids awaiting a consensus instance
        self._decided: set[str] = set()  # batch request ids already enqueued
        self._batch_seq = 0
        self.batches_ordered = 0
        # tx_id -> per-transaction consensus outcome (validator votes,
        # acceptance); the trust engine reads these to score sources and
        # validators.
        self.decisions: dict[str, TxDecision] = {}
        tx_validator = validator or default_tx_validator

        def replica_validator(
            replica_name: str, request: ClientRequest
        ) -> tuple[bool, ...]:
            # One verdict per transaction in the batch, in batch order.
            return tuple(
                tx_validator(self._txs[tx_id]) for tx_id in request.payload["tx_ids"]
            )

        self.cluster = BftCluster(
            n_replicas=n_validators,
            network=network or SimNetwork(),
            validator=replica_validator,
            behaviours=behaviours,
            on_decision=self._on_decision,
            checkpoint_interval=checkpoint_interval,
        )

    # -- consensus plumbing ---------------------------------------------------

    def _on_decision(self, replica: str, decision: Decision) -> None:
        request_id = decision.request.request_id
        if request_id in self._decided:
            return  # one enqueue per batch, not per replica
        self._decided.add(request_id)
        tx_ids = decision.request.payload["tx_ids"]
        for index, tx_id in enumerate(tx_ids):
            tx_decision = TxDecision(tx_id=tx_id, index=index, batch=decision)
            self.decisions[tx_id] = tx_decision
            self._cutter.enqueue(self._txs[tx_id], rejected=not tx_decision.accepted)

    def _order_batch(self) -> None:
        """Start one consensus instance over everything currently queued."""
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        with obs_span("fabric.order") as sp:
            sp.set_attr("orderer", "bft")
            sp.set_attr("batch_size", len(batch))
            with profiled("consensus.order"):
                envelope_hashes = tuple(
                    hashlib.sha256(self._txs[tx_id].envelope_bytes()).hexdigest()
                    for tx_id in batch
                )
                batch_digest = hashlib.sha256(
                    "".join(envelope_hashes).encode()
                ).hexdigest()
            request_id = f"batch-{self._batch_seq}"
            self._batch_seq += 1
            sp.set_attr("request_id", request_id)
            self.batches_ordered += 1
            if self.journal is not None:
                self.journal.record_batch(
                    request_id, [self._txs[tx_id] for tx_id in batch]
                )
            # Tuples: the primary and every replica share this one payload,
            # and its digest is remembered on the request that carries it.
            self.cluster.submit(
                {
                    "tx_ids": tuple(batch),
                    "envelope_hashes": envelope_hashes,
                    "batch_digest": batch_digest,
                },
                request_id=request_id,
                n_items=len(batch),
            )

    # -- orderer interface --------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        """Queue a transaction for batched ordering (no decision implied)."""
        if tx.tx_id in self._txs:
            raise OrderingError(f"transaction {tx.tx_id!r} already submitted")
        self._txs[tx.tx_id] = tx
        self._queue.append(tx.tx_id)
        if self.journal is not None:
            self.journal.record_submit(tx)
        if len(self._queue) >= self._cutter.max_batch_size:
            self._order_batch()

    def drop_queued(self) -> list[str]:
        """Orderer crash-amnesia: transactions submitted but not yet handed
        to a consensus instance are simply gone. Returns the dropped tx ids
        (oldest first) so the caller can count and report them — clients
        must resubmit through the resilience retry path."""
        dropped, self._queue = self._queue, []
        for tx_id in dropped:
            del self._txs[tx_id]
        return dropped

    def flush(self) -> None:
        self._order_batch()
        # Drive the validator network until every in-flight batch decides.
        self.cluster.run()
        self._cutter.cut()

    def register_delivery(self, deliver: DeliverFn) -> None:
        self._cutter.register_delivery(deliver)

    @property
    def blocks_cut(self) -> int:
        return self._cutter.blocks_cut

    @property
    def txs_ordered(self) -> int:
        return self._cutter.txs_ordered

    @property
    def consensus_messages(self) -> int:
        return self.cluster.network.stats.delivered
