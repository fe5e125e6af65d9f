"""Tests for the discrete-event network simulator."""

import pytest

from repro.errors import NetworkError, NodeUnreachableError
from repro.net import ConstantLatency, Message, NetNode, SimNetwork


def make_net(**kwargs) -> SimNetwork:
    return SimNetwork(latency=ConstantLatency(base=0.01, bandwidth_bps=1e9), **kwargs)


class Recorder(NetNode):
    """Node that records every delivered message."""

    def __init__(self, name, network):
        super().__init__(name, network)
        self.received: list[Message] = []

    def on_message(self, msg):
        self.received.append(msg)


class TestBasicDelivery:
    def test_send_delivers_after_latency(self):
        net = make_net()
        a = Recorder("a", net)
        b = Recorder("b", net)
        a.send("b", {"hello": 1})
        assert b.received == []  # nothing until the loop runs
        net.run()
        assert len(b.received) == 1
        assert b.received[0].payload == {"hello": 1}
        assert net.clock.now() >= 0.01

    def test_messages_preserve_send_order_on_equal_latency(self):
        net = make_net()
        a = Recorder("a", net)
        b = Recorder("b", net)
        for i in range(10):
            a.send("b", i, size_bytes=0)
        net.run()
        assert [m.payload for m in b.received] == list(range(10))

    def test_broadcast_reaches_all_but_sender(self):
        net = make_net()
        nodes = [Recorder(f"n{i}", net) for i in range(5)]
        nodes[0].broadcast("ping")
        net.run()
        assert all(len(n.received) == 1 for n in nodes[1:])
        assert nodes[0].received == []

    def test_unknown_destination_raises(self):
        net = make_net()
        Recorder("a", net)
        with pytest.raises(NodeUnreachableError):
            net.send("a", "ghost", "x")

    def test_unknown_source_raises(self):
        net = make_net()
        Recorder("a", net)
        with pytest.raises(NetworkError):
            net.send("ghost", "a", "x")

    def test_duplicate_registration_rejected(self):
        net = make_net()
        Recorder("a", net)
        with pytest.raises(NetworkError):
            Recorder("a", net)

    def test_transmission_delay_scales_with_size(self):
        net = SimNetwork(latency=ConstantLatency(base=0.0, bandwidth_bps=8.0))
        a = Recorder("a", net)
        Recorder("b", net)
        a.send("b", "x", size_bytes=16)  # 16 bytes at 8 bit/s = 16 s
        net.run()
        assert net.clock.now() == pytest.approx(16.0)


class TestDeterminism:
    def _run_once(self, seed):
        net = SimNetwork(drop_rate=0.3, seed=seed)
        recs = [Recorder(f"n{i}", net) for i in range(4)]
        for i in range(20):
            recs[i % 4].broadcast(i)
        net.run()
        return [(m.src, m.dst, m.payload) for r in recs for m in r.received], net.stats.dropped_rate

    def test_same_seed_same_trace(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_drops(self):
        assert self._run_once(1) != self._run_once(2)


class TestFaults:
    def test_down_node_drops_messages(self):
        net = make_net()
        a = Recorder("a", net)
        b = Recorder("b", net)
        net.set_node_up("b", False)
        a.send("b", "lost")
        net.run()
        assert b.received == []
        assert net.stats.dropped_down == 1

    def test_restart_restores_delivery(self):
        net = make_net()
        a = Recorder("a", net)
        b = Recorder("b", net)
        net.set_node_up("b", False)
        net.set_node_up("b", True)
        a.send("b", "back")
        net.run()
        assert len(b.received) == 1

    def test_partition_blocks_cross_traffic(self):
        net = make_net()
        a = Recorder("a", net)
        b = Recorder("b", net)
        c = Recorder("c", net)
        net.partition(["a", "b"], ["c"])
        a.send("b", "ok")
        a.send("c", "blocked")
        net.run()
        assert len(b.received) == 1
        assert c.received == []
        assert net.stats.dropped_partition == 1

    def test_heal_restores_traffic(self):
        net = make_net()
        a = Recorder("a", net)
        c = Recorder("c", net)
        net.partition(["a"], ["c"])
        net.heal()
        a.send("c", "through")
        net.run()
        assert len(c.received) == 1

    def test_message_in_flight_when_partition_forms_is_lost(self):
        net = make_net()
        a = Recorder("a", net)
        c = Recorder("c", net)
        a.send("c", "doomed")
        net.partition(["a"], ["c"])  # before the event loop runs
        net.run()
        assert c.received == []

    def test_drop_rate_drops_roughly_that_fraction(self):
        net = SimNetwork(drop_rate=0.5, seed=3)
        a = Recorder("a", net)
        b = Recorder("b", net)
        for i in range(400):
            a.send("b", i)
        net.run()
        assert 120 < len(b.received) < 280  # wide band around 200

    def test_invalid_drop_rate_rejected(self):
        with pytest.raises(ValueError):
            SimNetwork(drop_rate=1.0)


class TestEventLoop:
    def test_run_until_bounds_time(self):
        net = make_net()
        a = Recorder("a", net)
        b = Recorder("b", net)
        net.schedule(5.0, lambda: a.send("b", "late"))
        net.run(until=1.0)
        assert b.received == []
        assert net.clock.now() == 1.0
        net.run()
        assert len(b.received) == 1

    def test_timers_fire_in_order(self):
        net = make_net()
        fired = []
        net.schedule(2.0, lambda: fired.append("second"))
        net.schedule(1.0, lambda: fired.append("first"))
        net.run()
        assert fired == ["first", "second"]

    def test_max_events_guards_livelock(self):
        net = make_net()

        def rearm():
            net.schedule(0.001, rearm)

        net.schedule(0.0, rearm)
        processed = net.run(max_events=100)
        assert processed == 100

    def test_negative_schedule_rejected(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.schedule(-1.0, lambda: None)

    def test_run_returns_event_count(self):
        net = make_net()
        a = Recorder("a", net)
        Recorder("b", net)
        a.send("b", 1)
        a.send("b", 2)
        assert net.run() == 2

    def test_stats_track_bytes(self):
        net = make_net()
        a = Recorder("a", net)
        Recorder("b", net)
        a.send("b", "x", size_bytes=1000)
        net.run()
        assert net.stats.bytes_sent == 1000
        assert net.stats.bytes_delivered == 1000


class TestLatencyModels:
    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantLatency(base=-1)
        with pytest.raises(ValueError):
            ConstantLatency(bandwidth_bps=0)
