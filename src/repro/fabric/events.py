"""Event hub: block-commit delivery to subscribers.

Fabric clients learn about commits through peer event services; here the
channel publishes a :class:`BlockEvent` after each block commits, once per
block. :class:`repro.fabric.monitor.ChannelMonitor` is built on this
callback. Chaincode events (``stub.set_event``) are recorded in the
transaction on the ledger; nothing fans them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.fabric.ledger import Block


@dataclass(frozen=True)
class BlockEvent:
    """A block was committed on a peer."""

    peer: str
    block: Block


BlockCallback = Callable[[BlockEvent], None]


class EventHub:
    """Subscription registry; publishing is synchronous and in commit order."""

    def __init__(self) -> None:
        self._block_subs: list[BlockCallback] = []

    def subscribe_blocks(self, callback: BlockCallback) -> None:
        self._block_subs.append(callback)

    def publish_block(self, peer: str, block: Block) -> None:
        event = BlockEvent(peer=peer, block=block)
        for callback in list(self._block_subs):
            callback(event)
