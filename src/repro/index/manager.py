"""IndexManager: attach one :class:`PeerIndex` per peer on a channel.

The manager is the channel-level lifecycle owner: it equips every peer with
an empty index when the channel is stood up, hooks ``channel.indexing`` for
the query engine, and picks the reference peer the query engine reads
indexed answers from.
"""

from __future__ import annotations

from repro.index.secondary import PeerIndex


class IndexManager:
    """Per-channel owner of the peers' block-incremental indexes."""

    def __init__(self, channel) -> None:
        self.channel = channel
        channel.indexing = self
        for peer in channel.peers.values():
            peer.index = PeerIndex()

    def reference_peer(self, height: int | None = None):
        """The first online peer (by name) whose ledger *and* index are at
        ``height`` — the copy indexed reads come from; None if unavailable."""
        if height is None:
            height = self.channel.height()
        for name in sorted(self.channel.peers):
            peer = self.channel.peers[name]
            if (
                peer.online
                and peer.ledger.height == height
                and getattr(peer, "index", None) is not None
                and peer.index.height == height
            ):
                return peer
        return None
