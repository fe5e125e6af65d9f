"""Live ledger metrics for one channel.

:class:`ChannelMonitor` subscribes to a channel's event hub and keeps the
ledger metrics live (blocks, transactions by validation code, block fill,
chain height) in a :class:`~repro.obs.metrics.MetricsRegistry`. The
Explorer-style channel overview is
:meth:`repro.obs.explorer.LedgerExplorer.summary`.
"""

from __future__ import annotations

from repro.fabric.channel import Channel
from repro.fabric.events import BlockEvent
from repro.obs.metrics import MetricsRegistry


class ChannelMonitor:
    """Live ledger metrics fed by the channel's event hub."""

    BLOCK_FILL_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

    def __init__(self, channel: Channel, registry: MetricsRegistry | None = None) -> None:
        self.channel = channel
        self.metrics = registry or MetricsRegistry()
        channel.events.subscribe_blocks(self._on_block)

    def _on_block(self, event: BlockEvent) -> None:
        block = event.block
        self.metrics.counter("blocks_total").inc()
        self.metrics.gauge("chain_height").set(block.number + 1)
        self.metrics.histogram("block_tx_count", self.BLOCK_FILL_BUCKETS).observe(
            len(block.transactions)
        )
        # One labeled family (txs_total{code=...}), not one metric name per
        # validation code — keeps the family bounded and Grafana-friendly.
        for code in block.validation_codes or ():
            self.metrics.counter("txs_total", labels={"code": code.value.lower()}).inc()

    def render(self) -> str:
        return self.metrics.render()
