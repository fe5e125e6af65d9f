"""Event hub: block and chaincode event delivery to subscribers.

Fabric clients learn about commits through peer event services; here the
channel publishes a :class:`BlockEvent` after each commit, and chaincode
events (``stub.set_event``) from *valid* transactions fan out to matching
subscriptions. The trust engine and the monitoring hooks in the benchmarks
are both built on these callbacks.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Callable

from repro.fabric.audit import valid_txs
from repro.fabric.ledger import Block
from repro.fabric.tx import ChaincodeEvent


@dataclass(frozen=True)
class BlockEvent:
    """A block was committed on a peer."""

    peer: str
    block: Block


@dataclass(frozen=True)
class ChaincodeEventRecord:
    """A chaincode event from a committed, valid transaction."""

    peer: str
    block_number: int
    tx_id: str
    event: ChaincodeEvent


BlockCallback = Callable[[BlockEvent], None]
ChaincodeCallback = Callable[[ChaincodeEventRecord], None]


class EventHub:
    """Subscription registry; publishing is synchronous and in commit order."""

    def __init__(self) -> None:
        self._block_subs: list[BlockCallback] = []
        self._cc_subs: list[tuple[str, str, ChaincodeCallback]] = []
        self.blocks_published = 0
        self.events_published = 0

    def subscribe_blocks(self, callback: BlockCallback) -> None:
        self._block_subs.append(callback)

    def subscribe_chaincode(
        self, chaincode: str, event_pattern: str, callback: ChaincodeCallback
    ) -> None:
        """``event_pattern`` is an fnmatch glob over event names."""
        self._cc_subs.append((chaincode, event_pattern, callback))

    def publish_block(self, peer: str, block: Block) -> None:
        self.blocks_published += 1
        event = BlockEvent(peer=peer, block=block)
        for callback in list(self._block_subs):
            callback(event)
        for tx in valid_txs(block):  # events from invalid transactions never fire
            for cc_event in tx.events:
                self._publish_cc(peer, block.number, tx.tx_id, cc_event)

    def _publish_cc(self, peer: str, block_number: int, tx_id: str, event: ChaincodeEvent) -> None:
        self.events_published += 1
        record = ChaincodeEventRecord(
            peer=peer, block_number=block_number, tx_id=tx_id, event=event
        )
        for chaincode, pattern, callback in list(self._cc_subs):
            if chaincode == event.chaincode and fnmatch.fnmatch(event.name, pattern):
                callback(record)
