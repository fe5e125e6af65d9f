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

Both take ``submit(tx, riders=())``: a *rider* is a write that needs no
ordering round of its own (an access-log event, a trust-score snapshot).
It is queued with the carrier ``tx`` and ordered in the same consensus
instance and block; ``max_batch_size`` counts carriers only.

Orderers do not execute chaincode and never touch the world state — they
sequence opaque envelopes, exactly as in Fabric. They hold no clock either:
a block's header carries the largest proposal timestamp in its batch, the
channel's logical time (:data:`repro.fabric.channel.LEDGER_TICK_S`), so two
runs of one input cut byte-identical blocks.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol, Sequence

from repro.consensus.bft import Behaviour, BftCluster, Decision
from repro.consensus.messages import ClientRequest
from repro.errors import OrderingError
from repro.fabric.ledger import Block, GENESIS_PREVIOUS_HASH
from repro.fabric.tx import Transaction
from repro.net import SimNetwork
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span

# A delivery callback receives the cut block and the consensus decision that
# ordered it: item i of the decision is transaction i of the block (``None``
# for solo ordering).
DeliverFn = Callable[[Block, Decision | None], None]


class Orderer(Protocol):
    def submit(self, tx: Transaction, riders: Sequence[Transaction] = ()) -> None: ...
    def flush(self) -> None: ...
    def register_delivery(self, deliver: DeliverFn) -> None: ...


class _BatchCutter:
    """Shared block-building + hash-chain bookkeeping for both orderers."""

    def __init__(self, max_batch_size: int) -> None:
        if max_batch_size < 1:
            raise OrderingError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self._pending: list[Transaction] = []
        self._next_number = 0
        self._prev_hash = GENESIS_PREVIOUS_HASH
        self._delivery: list[DeliverFn] = []
        self.blocks_cut = 0
        self.txs_ordered = 0

    def register_delivery(self, deliver: DeliverFn) -> None:
        self._delivery.append(deliver)

    def add(self, tx: Transaction) -> None:
        self._pending.append(tx)

    def cut(self) -> None:
        """Cut everything added since the last cut as one block."""
        if self._pending:
            pending, self._pending = self._pending, []
            self.emit(pending)

    def emit(self, txs: Sequence[Transaction], decision: Decision | None = None) -> None:
        """Cut exactly ``txs`` as the next block and deliver it."""
        block = Block.build(
            number=self._next_number,
            previous_hash=self._prev_hash,
            transactions=tuple(txs),
            timestamp=max(tx.proposal.timestamp for tx in txs),
        )
        self._next_number += 1
        self._prev_hash = block.header.hash()
        self.blocks_cut += 1
        self.txs_ordered += len(block.transactions)
        for deliver in self._delivery:
            deliver(block, decision)


class _Ordering:
    """``submit`` for both orderers: carriers, their riders, and when a
    full batch goes to be cut. Subclasses queue one transaction
    (``_queue``) and cut what is queued (``_cut``)."""

    def __init__(self, max_batch_size: int = 1) -> None:
        self._cutter = _BatchCutter(max_batch_size)
        # Durability hook (repro.storage.persistence.DurabilityManager).
        self.journal = None
        self._carriers = 0  # queued carriers (riders do not count)
        self._announced: set[str] = set()  # rider tx ids on their way in

    def submit(self, tx: Transaction, riders: Sequence[Transaction] = ()) -> None:
        """Queue ``tx`` for ordering with the riders that travel with it.

        Each rider goes through ``submit`` itself, right behind ``tx`` and
        before any cut, so every transaction is journaled (and traced) once;
        it lands in the same consensus instance and block as ``tx``.
        """
        is_rider = tx.tx_id in self._announced
        self._announced.discard(tx.tx_id)
        self._queue(tx)
        if self.journal is not None:
            self.journal.record_submit(tx)
        self._announced.update(rider.tx_id for rider in riders)
        for rider in riders:
            self.submit(rider)
        if not is_rider:
            self._carriers += 1
            if self._carriers >= self._cutter.max_batch_size:
                self._cut()

    def _queue(self, tx: Transaction) -> None:
        raise NotImplementedError

    def _cut(self) -> None:
        raise NotImplementedError

    def register_delivery(self, deliver: DeliverFn) -> None:
        self._cutter.register_delivery(deliver)

    @property
    def blocks_cut(self) -> int:
        return self._cutter.blocks_cut

    @property
    def txs_ordered(self) -> int:
        return self._cutter.txs_ordered


class SoloOrderer(_Ordering):
    """Single-node sequencer (no fault tolerance, no validation)."""

    def submit(self, tx: Transaction, riders: Sequence[Transaction] = ()) -> None:
        with obs_span("fabric.order") as sp:
            sp.set_attr("orderer", "solo")
            sp.set_attr("tx_id", tx.tx_id)
            super().submit(tx, riders)

    def _queue(self, tx: Transaction) -> None:
        self._cutter.add(tx)

    def _cut(self) -> None:
        self._carriers = 0
        self._cutter.cut()

    def flush(self) -> None:
        self._cut()


def default_tx_validator(tx: Transaction) -> bool:
    """What each BFT validator independently checks before voting *valid*:
    every endorsement signature verifies over the transaction's rwset and
    response — the "assesses the digital signatures attached to the data"
    check from the paper's §III. Every replica asks the same transaction
    object, so the signatures are checked by the first to ask."""
    return bool(tx.endorsements) and all(tx.endorsement_verdicts())


class BftOrderer(_Ordering):
    """Ordering via a PBFT validator cluster, amortized over blocks.

    ``submit`` queues the transaction (and its riders); once
    ``max_batch_size`` carriers accumulate (or ``flush`` is called) the
    whole queue becomes *one* BFT consensus instance, and each decided
    instance is cut as exactly one block. The digest replicas agree on
    covers every envelope hash in the batch, and each replica's
    prepare/commit vote carries one ``validator(tx)`` verdict per
    transaction, so per-transaction acceptance (and
    ``REJECTED_BY_CONSENSUS`` flagging) is decided exactly as in the
    one-instance-per-transaction configuration. The block is delivered
    with the decision of the first replica to decide (all honest replicas
    decide identically — that is the BFT guarantee, separately tested in
    the consensus suite); the orderer keeps no outcome of its own.

    ``submit`` is asynchronous: it never drives the validator network.
    ``flush`` runs the network until every in-flight batch decides.
    """

    def __init__(
        self,
        n_validators: int = 4,
        max_batch_size: int = 1,
        validator: Callable[[Transaction], bool] | None = None,
        behaviours: dict[str, Behaviour] | None = None,
        network: SimNetwork | None = None,
        checkpoint_interval: int = 0,
    ) -> None:
        super().__init__(max_batch_size)
        self._txs: dict[str, Transaction] = {}
        self._queued: list[str] = []  # tx ids awaiting a consensus instance
        self._decided: set[str] = set()  # batch request ids already enqueued
        self._batch_seq = 0
        self.batches_ordered = 0
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
        txs = [self._txs[tx_id] for tx_id in decision.request.payload["tx_ids"]]
        self._cutter.emit(txs, decision)

    def _cut(self) -> None:
        """Start one consensus instance over everything currently queued."""
        batch, self._queued, self._carriers = self._queued, [], 0
        if not batch:
            return
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

    def _queue(self, tx: Transaction) -> None:
        """Queue a transaction for batched ordering (no decision implied)."""
        if tx.tx_id in self._txs:
            raise OrderingError(f"transaction {tx.tx_id!r} already submitted")
        self._txs[tx.tx_id] = tx
        self._queued.append(tx.tx_id)

    def drop_queued(self) -> list[str]:
        """Orderer crash-amnesia: transactions submitted but not yet handed
        to a consensus instance are simply gone. Returns the dropped tx ids
        (oldest first) so the caller can count and report them — clients
        must resubmit through the resilience retry path."""
        dropped, self._queued, self._carriers = self._queued, [], 0
        for tx_id in dropped:
            del self._txs[tx_id]
        return dropped

    def flush(self) -> None:
        self._cut()
        # Drive the validator network until every in-flight batch decides;
        # each decision is delivered as its own block.
        self.cluster.run()

    @property
    def consensus_messages(self) -> int:
        return self.cluster.network.stats.delivered
