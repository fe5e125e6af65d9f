"""Tests for the metrics registry, channel monitor, and explorer summary."""

import pytest

from repro.errors import ObservabilityError
from repro.fabric.monitor import ChannelMonitor
from repro.obs.explorer import LedgerExplorer
from repro.obs.metrics import Histogram, MetricsRegistry

from tests.fabric_helpers import make_network


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("requests").inc()
        reg.counter("requests").inc(2)
        assert reg.snapshot()["counters"]["requests"] == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_sets(self):
        reg = MetricsRegistry()
        reg.gauge("height").set(5)
        reg.gauge("height").set(3)
        assert reg.snapshot()["gauges"]["height"] == 3

    def test_histogram_buckets(self):
        hist = Histogram(name="lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            hist.observe(v)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.n == 4
        assert hist.mean == pytest.approx(138.875)

    def test_histogram_unsorted_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram(name="bad", buckets=(10.0, 1.0))

    def test_render_prometheus_format(self):
        reg = MetricsRegistry(prefix="test")
        reg.counter("ops").inc(7)
        reg.gauge("depth").set(2)
        reg.histogram("lat", (1.0, 2.0)).observe(1.5)
        text = reg.render()
        assert "# TYPE test_ops counter" in text
        assert "test_ops 7.0" in text
        assert 'test_lat_bucket{le="+Inf"} 1' in text
        assert "test_lat_count 1" in text

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")


class TestChannelMonitor:
    def test_blocks_and_txs_counted(self):
        net, channel, alice = make_network()
        monitor = ChannelMonitor(channel)
        for i in range(3):
            channel.invoke(alice, "kv", "put", [f"k{i}", "v"])
        snap = monitor.metrics.snapshot()
        assert snap["counters"]["blocks_total"] == 3
        assert snap["counters"]['txs_total{code="valid"}'] == 3
        assert snap["gauges"]["chain_height"] == 3

    def test_invalid_tx_counted_by_code(self):
        net, channel, alice = make_network(max_batch_size=2)
        monitor = ChannelMonitor(channel)
        channel.invoke_async(alice, "kv", "increment", ["c"])
        channel.invoke_async(alice, "kv", "increment", ["c"])
        channel.flush()
        snap = monitor.metrics.snapshot()
        assert snap["counters"]['txs_total{code="valid"}'] == 1
        assert snap["counters"]['txs_total{code="mvcc_read_conflict"}'] == 1

    def test_block_fill_histogram(self):
        net, channel, alice = make_network(max_batch_size=4)
        monitor = ChannelMonitor(channel)
        for i in range(4):
            channel.invoke_async(alice, "kv", "put", [f"k{i}", "v"])
        channel.flush()
        hist = monitor.metrics.snapshot()["histograms"]["block_tx_count"]
        assert hist["n"] == 1
        assert hist["mean"] == 4.0

    def test_render_nonempty(self):
        net, channel, alice = make_network()
        monitor = ChannelMonitor(channel)
        channel.invoke(alice, "kv", "put", ["k", "v"])
        assert "repro_blocks_total" in monitor.render()


class TestChannelSummary:
    def test_summary_shape(self):
        net, channel, alice = make_network(peers_per_org=2)
        channel.invoke(alice, "kv", "put", ["k", "v"])
        summary = LedgerExplorer(channel).summary()
        assert summary["channel"] == "traffic"
        assert summary["height"] == 1
        assert summary["orgs"] == ["org1", "org2"]
        assert "kv" in summary["chaincodes"]
        assert summary["tx_by_code"] == {"VALID": 1}
        assert len(summary["peers"]) == 4
        for info in summary["peers"].values():
            assert info["height"] == 1
            assert info["online"] is True

    def test_summary_tracks_offline_peers(self):
        net, channel, alice = make_network(peers_per_org=2)
        lagging = list(channel.peers.values())[-1]
        lagging.online = False
        channel.invoke(alice, "kv", "put", ["k", "v"])
        summary = LedgerExplorer(channel).summary()
        assert summary["peers"][lagging.name]["online"] is False
        assert summary["peers"][lagging.name]["height"] == 0
