"""Gossip: block dissemination and anti-entropy between peers.

Fabric peers receive blocks either directly from ordering or from other
peers via gossip; a peer that was offline catches up by pulling missing
blocks from a healthy neighbour. :func:`sync_peer` replays the missing
suffix through the normal commit path; each block names its own consensus
verdicts, so validation codes and world state come out identical with no
channel in the loop. :func:`anti_entropy` runs pairwise sync until all
online peers converge to the same height.
"""

from __future__ import annotations

from repro.errors import FabricError, LedgerError
from repro.fabric.peer import Peer


def sync_peer(behind: Peer, ahead: Peer) -> int:
    """Pull blocks ``behind`` is missing from ``ahead``; returns blocks copied."""
    if not behind.online:
        raise FabricError(f"peer {behind.name!r} is offline")
    copied = 0
    while behind.ledger.height < ahead.ledger.height:
        number = behind.ledger.height
        block = ahead.ledger.block(number)
        # The receiving peer re-validates rather than trusting the sender's
        # codes: commit_block derives them from the block alone.
        if behind.commit_block(block).validation_codes != block.validation_codes:
            raise LedgerError(
                f"peer {behind.name!r} disagrees with {ahead.name!r} on block {number}"
            )
        copied += 1
    return copied


def anti_entropy(peers: list[Peer]) -> int:
    """Bring every online peer to the maximum height among online peers."""
    online = [p for p in peers if p.online]
    if not online:
        return 0
    ahead = max(online, key=lambda p: p.ledger.height)
    total = 0
    for peer in online:
        if peer is not ahead:
            total += sync_peer(peer, ahead)
    return total
