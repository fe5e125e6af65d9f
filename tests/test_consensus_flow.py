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
    """Checkpoints every 4 decisions and message chaos (drop, duplicate and
    delay at 0.05 each, plus the network's own drop rate), with one faulty
    replica per run: each fault, as the primary and as the last backup, at
    n = 4 and n = 7. Two runs carry extra checks: a SILENT primary, so view
    changes run as well as the normal case; and an ALWAYS_INVALID last
    backup at n = 4, so every decision has a dissenting vote and four
    voters, the last one a straggler."""

    DIGESTS = {
        "crashed-primary-n4": "43318d712c672250aa931171677c2cf13c892bd616f08092882c5e384d722c45",
        "silent-primary-n4": "624c3a6d37319150de8c4ff8264b7112c2e1f315934d577f4df115ca31c2dd9a",
        "equivocate-primary-n4": "b8ae0d8ddbb6d3b66c10a9e1022686f6e44760086843740eb489154a196c15e4",
        "wrong-digest-primary-n4": "448c9a2c336644ea030b897d8ed80de2e9e5e0bc9f8bfd17a8eaafc5f2e8da9e",
        "always-valid-primary-n4": "fabc220894992a30614b0b6f9ff52fe31ed5d619b608e7c84731b80c92507cb4",
        "always-invalid-primary-n4": "7ba5e9225054f3236b14515e7d2791f4c2144c0a8fa41f452cde6f8a5bd51f53",
        "crashed-last-backup-n4": "b623d4f8c207ab64451cfa42f2d2cd82c95d2fdb3900e80b24f9f91f330dbbc3",
        "silent-last-backup-n4": "aefa2456d17022a4fa0dd00dd0509adda1ca0dfb99a99b7aeae78c6aef953888",
        "equivocate-last-backup-n4": "290a335d60e98f38cd31cb36226e46a3b7b5d05ef8fd6a73f3015ff80658b875",
        "wrong-digest-last-backup-n4": "4a16cd9ab8acffc22d9fc3d35fce8c3a5c3bc1ff57bcede636538b91b13062e3",
        "always-valid-last-backup-n4": "1d92e8f77dd34844abf50d10989bd2d1b2e0a99fcbf0d08cd3d5874ca65f0e2f",
        "always-invalid-last-backup-n4": "b7628c1bbc8e78e5a15d8591404305e94082f4bcccc0c8beef730580c7375142",
        "crashed-primary-n7": "0a74f2024e9b55759eaad0c40ccdac9c71eb5d0b990904aca14a1d661e44db81",
        "silent-primary-n7": "12bca431f83af7da3e1feadafdff897e1d86758caf4e0713447d4cd49ba7962d",
        "equivocate-primary-n7": "3d4ebc3aecf3978f20f947ebee63f3506d4e0b1d52b81d5ac749250c5d646825",
        "wrong-digest-primary-n7": "0eca9adeafd63290ad1c5bd144c709d28cd7f1ea07eefa60224cc3ae4725d3c6",
        "always-valid-primary-n7": "29abaeca617f1f80c4b6b10af30fc3beae841f7e03744c59f6476d1c27ca32a2",
        "always-invalid-primary-n7": "db49ad4c6db81501b891cf5b643c6241ed98afb2a55af5cbed278d7a9d765dbf",
        "crashed-last-backup-n7": "104a465537fd4c1bcc8ce2738ead14b91970f9e78a05b774aa1349d70bfdcee4",
        "silent-last-backup-n7": "93ed486be0b2ada509c51d12f7d319f97bb3d7a581a33146591b4725d7ae570a",
        "equivocate-last-backup-n7": "8ef031b988d891df893a512f8a6278be8d4ca2aa27836e44c4496c8c4b0d4928",
        "wrong-digest-last-backup-n7": "71687cf44b56aa764b4e5834ae87a4983e53eb0b7ba0b78e1d2ba83baff81bf7",
        "always-valid-last-backup-n7": "1b83008212ef2a618578b46b92b4115312f2735553d71154ad3507717a05a22a",
        "always-invalid-last-backup-n7": "e2ba8ea4354c8b930222b61f33095164841a58342fedbe215949dea57489d16a",
    }
    SCENARIOS = {  # the two runs with extra checks, by their pinned run
        "silent-primary": "silent-primary-n4",
        "invalid-voter": "always-invalid-last-backup-n4",
    }

    def run(self, monkeypatch, scenario):
        fault, n = self.fault_of(scenario)
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
        cluster = BftCluster(n, network=net, validator=verdicts, checkpoint_interval=4)
        cluster.corrupt(*fault)
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

    @staticmethod
    def fault_of(scenario):
        """``"<fault>-<primary|last-backup>-n<N>"`` -> ((replica, fault), N)."""
        rest, n = scenario.rsplit("-n", 1)
        for position, index in (("-primary", 0), ("-last-backup", int(n) - 1)):
            if rest.endswith(position):
                return (f"validator-{index}", Behaviour(rest[: -len(position)])), int(n)
        raise ValueError(scenario)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_the_delivery_sequence_stats_and_logs_are_pinned(self, monkeypatch, scenario):
        cluster, doc = self.run(monkeypatch, self.SCENARIOS[scenario])
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
        assert sha(doc) == self.DIGESTS[self.SCENARIOS[scenario]]

    @pytest.mark.parametrize(
        "scenario", sorted(set(DIGESTS) - set(SCENARIOS.values()))
    )
    def test_every_fault_as_primary_and_as_last_backup_is_pinned(self, monkeypatch, scenario):
        cluster, doc = self.run(monkeypatch, scenario)
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

    def test_a_submit_stays_within_its_call_budget_and_walks_nothing(self):
        from repro.core import BatchIngestor
        from repro.workloads import IngestItem

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
