"""A PBFT round's messages, their order and their Python cost.

The network and the replicas may get cheaper, but a seeded run must keep
sending the same messages in the same (time, seq) order, drawing the same
random numbers and reaching the same decisions: the digests below were taken
from the simulator as it was before its per-message work was cut, and every
later change has to reproduce them.
"""

import dataclasses
import hashlib
import json
import sys
from collections import Counter

import pytest

from repro import obs
from repro.chaos.faults import NetChaosInjector
from repro.consensus import Behaviour, BftCluster
from repro.consensus.bft import BftReplica
from repro.core import Client, Framework, FrameworkConfig
from repro.net import SimNetwork
from repro.trust import SourceTier


def sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def verdicts(replica, request):
    """An honest validator's per-item verdicts: some items are invalid."""
    tx = request.payload["tx"]
    return tuple((tx + i) % 4 != 0 for i in range(request.n_items))


class TestGoldenFlow:
    """n = 4 with checkpoints every 4 decisions and message chaos (drop,
    duplicate and delay at 0.05 each, plus the network's own drop rate), in
    two runs: a SILENT primary, so view changes run as well as the normal
    case; and an ALWAYS_INVALID validator, so every decision has a dissenting
    vote and four voters, the last one a straggler."""

    DIGESTS = {
        "silent-primary": "624c3a6d37319150de8c4ff8264b7112c2e1f315934d577f4df115ca31c2dd9a",
        "invalid-voter": "b7628c1bbc8e78e5a15d8591404305e94082f4bcccc0c8beef730580c7375142",
    }
    BEHAVIOURS = {
        "silent-primary": {"validator-0": Behaviour.SILENT},
        "invalid-voter": {"validator-3": Behaviour.ALWAYS_INVALID},
    }

    def run(self, monkeypatch, behaviours):
        deliveries = []
        handle = BftReplica.on_message

        def recording(replica, msg):
            deliveries.append([replica.network.clock.now(), msg.src, msg.dst, msg.kind])
            handle(replica, msg)

        monkeypatch.setattr(BftReplica, "on_message", recording)
        net = SimNetwork(drop_rate=0.02, seed=1)
        net.fault_injector = NetChaosInjector(
            seed=1, drop_rate=0.05, duplicate_rate=0.05, delay_rate=0.05
        )
        cluster = BftCluster(
            4, network=net, validator=verdicts, checkpoint_interval=4, behaviours=behaviours
        )
        for i in range(12):
            cluster.submit({"tx": i}, n_items=1 + i % 3)
            cluster.run()
        replicas = cluster.replicas
        return cluster, {
            "deliveries": deliveries,
            "stats": dataclasses.asdict(net.stats),
            "logs": {n: r._log_digest(1 << 30) for n, r in replicas.items()},
            "views": {n: r.view for n, r in replicas.items()},
            "checkpoints": {n: r.stable_checkpoint for n, r in replicas.items()},
            "decided": {
                n: [
                    [d.seq, d.view, d.request.request_id, d.accepted, list(d.item_accepted),
                     sorted(d.votes.items()), sorted((k, list(v)) for k, v in d.item_votes.items())]
                    for d in r.log
                ]
                for n, r in replicas.items()
            },
        }

    @pytest.mark.parametrize("scenario", sorted(DIGESTS))
    def test_the_delivery_sequence_stats_and_logs_are_pinned(self, monkeypatch, scenario):
        cluster, doc = self.run(monkeypatch, self.BEHAVIOURS[scenario])
        # What the pin covers: every fault class fired, views moved, and
        # either checkpoints collected the decided prefix or the straggler
        # and dissenting votes were recorded.
        stats = doc["stats"]
        assert stats["dropped_rate"] and stats["dropped_chaos"]
        assert stats["duplicated_chaos"] and stats["delayed_chaos"]
        assert min(doc["views"].values()) > 0
        decided = doc["decided"]["validator-1"]
        assert any(accepted for _, _, _, accepted, *_ in decided)
        assert not all(accepted for _, _, _, accepted, *_ in decided)
        if scenario == "silent-primary":
            assert max(doc["checkpoints"].values()) >= 3
        else:
            assert max(len(votes) for *_, votes, _ in decided) == 4
        assert cluster.log_prefix_consistent()
        assert sha(doc) == self.DIGESTS[scenario]


class TestRoundCost:
    """One steady-state decision of a bare 4-replica cluster: 27 messages.
    Its count of Python calls (``call`` and ``c_call`` profile events) is
    deterministic, so it is gated as a count, not a time: 799 measured on
    Python 3.11, against 1,550 when every message paid for a dataclass
    envelope, a send per destination and four no-op probes on delivery."""

    MAX_CALLS = 940  # 60 % of the former count

    def test_a_decision_costs_under_sixty_percent_of_the_former_calls(self):
        cluster = BftCluster(4)
        for i in range(20):  # past every first-use path
            cluster.submit({"tx": i})
            cluster.run()
        messages = cluster.network.stats.sent
        counts: Counter = Counter()

        def count(frame, event, arg):
            if event == "call":
                counts[frame.f_code.co_name] += 1
            elif event == "c_call":
                counts[arg.__name__] += 1

        sys.setprofile(count)
        try:
            cluster.submit({"tx": -1})
            cluster.run()
        finally:
            sys.setprofile(None)
        assert cluster.network.stats.sent - messages == 27
        assert sum(counts.values()) <= self.MAX_CALLS
        # Nothing is opened per message while tracing and profiling are off.
        assert counts["profiled"] < 27 and counts["span"] < 27


class TestSubmitCost:
    """A steady-state ``Client.submit`` on the default framework (4 KiB
    payload, BFT ordering, one transaction per block), past every first-use
    path: its mean count of Python calls (``call`` and ``c_call`` events)
    over a seeded run is deterministic up to hash order, so it is gated as a
    count. 2,570 measured on Python 3.11, against 2,969 when every canonical
    form walked its value in Python before rendering it; the walk runs in
    none of these submits, nor in an ingest, a retrieve or a query."""

    MAX_CALLS_PER_SUBMIT = 2_650  # about 3 % above the measured mean
    WARMUP, SUBMITS = 40, 20

    @staticmethod
    def metadata(i):
        return {
            "camera_id": f"cam-{i % 8}", "timestamp": 1.7e9 + 30.0 * i,
            "location": {"lat": 12.5, "lon": 77.125},
            "detections": [
                {"vehicle_class": "car", "confidence": 0.5},
                {"vehicle_class": "bus", "confidence": 0.625},
            ],
        }

    @staticmethod
    def counted(op):
        counts: Counter = Counter()

        def count(frame, event, arg):
            if event == "call":
                counts[frame.f_code.co_name] += 1
            elif event == "c_call":
                counts[arg.__name__] += 1

        sys.setprofile(count)
        try:
            op()
        finally:
            sys.setprofile(None)
        return counts

    def test_a_submit_stays_within_its_call_budget_and_walks_nothing(self, monkeypatch):
        from repro.core import BatchIngestor
        from repro.workloads import IngestItem

        # A sanitized run earlier in this process leaves its sanitizer
        # active, and its query parity check reads the whole chain.
        runtime = sys.modules.get("repro.analysis.runtime")
        if runtime is not None:
            monkeypatch.setattr(runtime, "_ACTIVE", None)

        framework = Framework(FrameworkConfig())
        client = Client(framework, framework.register_source("cam", tier=SourceTier.TRUSTED))
        for i in range(self.WARMUP):
            entry_id = client.submit(bytes([i]) * 4096, self.metadata(i)).entry_id
        height = framework.channel.height()
        span = range(self.WARMUP, self.WARMUP + self.SUBMITS)
        counts = self.counted(
            lambda: [client.submit(bytes([i]) * 4096, self.metadata(i)) for i in span]
        )
        assert framework.channel.height() - height >= self.SUBMITS
        assert counts["_check"] == 0
        assert sum(counts.values()) / self.SUBMITS <= self.MAX_CALLS_PER_SUBMIT

        ingestor = BatchIngestor(framework)
        ingestor.register(client.identity)
        items = [
            IngestItem(source_id="cam", payload=bytes([i]) * 4096,
                       metadata=self.metadata(i), observation=None)
            for i in range(100, 104)
        ]
        for op in (
            lambda: ingestor.ingest(items),
            lambda: client.retrieve(entry_id),
            lambda: client.query("camera_id = 'cam-3'"),
        ):
            op()  # first use
            assert self.counted(op)["_check"] == 0


class TestObservedRound:
    """With the profiler and the tracer on, a seeded run of three submits
    opens the same frames and spans as before: per (node, center) call
    counts of the net.* and consensus.* centers, and every net.deliver span
    with its sender, kind and remote parent."""

    CENTERS = "bb670692f53179b7faaaaf4d1fa726ae61943bf4ad1bfb8563d8c3a7ab7878c5"
    DELIVERIES = "29a78c9025545342e603aa59d7541369910dc6e5e7ba6ebd9d551d64784356a2"
    TOTALS = {
        "consensus.handle": 155, "consensus.order": 5, "consensus.validate": 20,
        "net.deliver": 135, "net.dispatch": 150, "net.run": 5,
    }

    @staticmethod
    def run(traced):
        registry = obs.MetricsRegistry()
        obs.set_registry(registry)
        profiler = obs.enable_profiler()
        tracer = obs.enable(registry=registry, max_spans=None) if traced else None
        try:
            framework = Framework(FrameworkConfig(consensus="bft"))
            client = Client(framework, framework.register_source("cam", tier=SourceTier.TRUSTED))
            for i in range(3):
                client.submit(bytes([i]) * 512, {"timestamp": float(i), "detections": []})
        finally:
            obs.disable()
            obs.disable_profiler()
        centers = sorted(
            (c.node, c.center, c.calls)
            for c in profiler.report().centers
            if c.center.startswith(("net.", "consensus."))
        )
        totals: Counter = Counter()
        for _, center, calls in centers:
            totals[center] += calls
        return tracer, centers, totals

    def test_frames_and_delivery_spans_are_unchanged(self):
        tracer, centers, totals = self.run(traced=True)
        by_id = {s.span_id: s for s in tracer.finished}
        delivers = []
        for s in tracer.spans("net.deliver"):
            parent = by_id.get(s.parent_id)
            delivers.append((
                s.attrs["src"], s.node, s.attrs["kind"], s.remote,
                parent and parent.name, parent and parent.node,
            ))
        assert totals == self.TOTALS
        assert len(delivers) == 135
        assert sha(centers) == self.CENTERS
        assert sha(delivers) == self.DELIVERIES

    def test_the_profiler_alone_opens_the_same_frames(self):
        _, _, totals = self.run(traced=False)
        assert totals == self.TOTALS
