"""Cross-cutting failure-injection tests: the system under partial failure."""

import pytest

from repro.consensus import Behaviour
from repro.core import Client, Framework, FrameworkConfig
from repro.errors import BlockNotFoundError, EndorsementError
from repro.fabric.snapshot import states_agree
from repro.ipfs import FixedSizeChunker, IpfsCluster
from repro.ipfs.replication import ReplicationManager
from repro.trust import SourceTier
from repro.util.rng import rng_for

from tests.fabric_helpers import make_network

META = {"timestamp": 1.0, "detections": []}


class TestEndorsementFailures:
    def test_offline_org_peer_fails_endorsement_cleanly(self):
        net, channel, alice = make_network()
        for peer in channel.org_peers("org2"):
            peer.online = False
        # AnyOf policy: org1 alone satisfies it; explicit org2 demand fails.
        with pytest.raises(EndorsementError):
            channel.endorse(alice, "kv", "put", ["k", "v"], endorsing_orgs=["org2"])

    def test_surviving_org_keeps_channel_alive(self):
        net, channel, alice = make_network(peers_per_org=2)
        for peer in channel.org_peers("org2"):
            peer.online = False
        result = channel.invoke(alice, "kv", "put", ["k", "v"], endorsing_orgs=["org1"])
        assert result.ok

    def test_second_peer_of_org_takes_over(self):
        net, channel, alice = make_network(peers_per_org=2)
        first = channel.org_peers("org1")[0]
        first.online = False
        result = channel.invoke(alice, "kv", "put", ["k", "v"])
        assert result.ok


class TestCommitOutageRecovery:
    def test_peer_down_across_many_blocks_catches_up(self):
        net, channel, alice = make_network(peers_per_org=2)
        lagging = list(channel.peers.values())[2]
        lagging.online = False
        for i in range(6):
            channel.invoke(alice, "kv", "put", [f"k{i}", str(i)])
        lagging.online = True
        channel.anti_entropy()
        reference = list(channel.peers.values())[0]
        assert lagging.ledger.height == reference.ledger.height
        assert states_agree(lagging, reference)

    def test_catchup_replays_mvcc_identically(self):
        net, channel, alice = make_network(peers_per_org=2, max_batch_size=2)
        lagging = list(channel.peers.values())[3]
        lagging.online = False
        # Create a block containing a known MVCC conflict.
        channel.invoke(alice, "kv", "put", ["c", "0"])
        channel.invoke_async(alice, "kv", "increment", ["c"])
        channel.invoke_async(alice, "kv", "increment", ["c"])
        channel.flush()
        lagging.online = True
        channel.anti_entropy()
        reference = list(channel.peers.values())[0]
        # The lagging peer re-validated and reached the same per-tx codes.
        for num in range(reference.ledger.height):
            assert (
                lagging.ledger.block(num).validation_codes
                == reference.ledger.block(num).validation_codes
            )


class TestBftValidatorFailuresMidstream:
    def test_validator_crash_mid_stream(self):
        framework = Framework(FrameworkConfig(consensus="bft", n_validators=4))
        client = Client(
            framework, framework.register_source("mid-cam", tier=SourceTier.TRUSTED)
        )
        client.submit(b"before crash", dict(META))
        # Crash one validator (f=1): subsequent submissions must still commit.
        orderer = framework.channel.orderer
        orderer.cluster.network.set_node_up("validator-2", False)
        receipt = client.submit(b"after crash", dict(META))
        assert receipt.ok

    def test_byzantine_validator_from_genesis(self):
        framework = Framework(FrameworkConfig(consensus="bft", n_validators=4))
        orderer = framework.channel.orderer
        orderer.cluster.corrupt("validator-1", Behaviour.WRONG_DIGEST)
        client = Client(
            framework, framework.register_source("byz-cam", tier=SourceTier.TRUSTED)
        )
        receipt = client.submit(b"tolerated", dict(META))
        assert receipt.ok


class TestIpfsFailures:
    def test_provider_loss_makes_content_unreachable_then_repair_restores(self):
        cluster = IpfsCluster(n_nodes=4, chunker=FixedSizeChunker(200))
        mgr = ReplicationManager(cluster, replication_factor=2)
        data = rng_for(1, "fail").bytes(1500)
        root = cluster.add(data, node="ipfs-0").cid
        mgr.replicate(root)
        # Kill every current holder but one; repair from the survivor.
        holders = mgr.status(root).holders
        for victim in holders[:-1]:
            cluster.crash_node(victim)
        assert mgr.repair()  # did work
        status = mgr.status(root)
        assert status.healthy
        assert cluster.node(status.holders[0]).unixfs.read_file(root) == data

    def test_all_holders_lost_is_a_hard_failure(self):
        cluster = IpfsCluster(n_nodes=3, chunker=FixedSizeChunker(200))
        data = rng_for(2, "fail").bytes(800)
        root = cluster.add(data, node="ipfs-0").cid  # only ipfs-0 holds it
        cluster.crash_node("ipfs-0")
        with pytest.raises(BlockNotFoundError):
            cluster.cat(root, node="ipfs-1")

    def test_retrieval_survives_one_ipfs_node_loss_with_framework(self):
        framework = Framework(FrameworkConfig(consensus="solo", n_ipfs_nodes=3))
        client = Client(
            framework, framework.register_source("ha-cam", tier=SourceTier.TRUSTED)
        )
        receipt = client.submit(b"replicate me" * 100, dict(META))
        from repro.crypto.cid import CID

        mgr = ReplicationManager(framework.ipfs, replication_factor=2)
        status = mgr.replicate(CID.parse(receipt.cid))
        # Lose one replica; retrieval still verifies.
        framework.ipfs.crash_node(status.holders[0])
        result = client.retrieve(receipt.entry_id)
        assert result.verified and result.data == b"replicate me" * 100


class TestNetworkPartitionDuringConsensus:
    def test_partition_stalls_then_heal_recovers(self):
        from repro.consensus import BftCluster
        from repro.net import ConstantLatency, SimNetwork

        net = SimNetwork(latency=ConstantLatency(base=0.001))
        cluster = BftCluster(n_replicas=4, network=net, view_timeout=0.5)
        # Split 2/2: no side has a 2f+1=3 quorum.
        net.partition(["validator-0", "validator-1"], ["validator-2", "validator-3"])
        request = cluster.submit("partitioned")
        cluster.run(until=2.0)
        assert not cluster.agreement_reached(request.request_id)
        net.heal()
        retry = cluster.submit("after heal")
        cluster.run(until=20.0)
        assert cluster.agreement_reached(retry.request_id)


class TestChaosScenarioDriven:
    """End-to-end failure injection through the ChaosScenario runner: the
    same seeded fault schedules the CLI and CI run, asserted in-process."""

    def _fresh_registry(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        set_registry(registry)
        return registry

    def test_partition_heal_anti_entropy_catches_everyone_up(self):
        from repro.chaos import ChaosScenario, HealPartition, Partition

        self._fresh_registry()
        scenario = ChaosScenario(
            name="partition-heal",
            config=FrameworkConfig(consensus="bft", peers_per_org=2, resilience_seed=1),
            faults=[
                Partition(
                    at_cycle=4,
                    sides=(("validator-0", "validator-1"),
                           ("validator-2", "validator-3")),
                ),
                HealPartition(at_cycle=7),
            ],
            n_cycles=16,
            seed=1,
        )
        report = scenario.run()
        assert report.data_loss == 0
        by_cycle = {c.cycle: c for c in report.cycles}
        assert not by_cycle[4].submitted        # no quorum on either side
        assert by_cycle[15].submitted           # healed and drained
        # After the run every cycle's own retrieve agreed with its payload,
        # and the final sweep (which runs anti_entropy first) saw no loss —
        # the lagging peers caught up.

    def test_ipfs_crash_mid_run_fails_over_to_replicas(self):
        from repro.chaos import ChaosScenario, IpfsNodeCrash

        registry = self._fresh_registry()
        scenario = ChaosScenario(
            name="crash-failover",
            config=FrameworkConfig(n_ipfs_nodes=3, resilience_seed=2),
            faults=[
                IpfsNodeCrash(at_cycle=2, peer_id="ipfs-0"),
                IpfsNodeCrash(at_cycle=5, peer_id="ipfs-1"),
            ],
            n_cycles=10,
            seed=2,
        )
        report = scenario.run()
        # Entries written before the crashes are re-read afterwards from
        # the surviving replicas — nothing degrades, nothing is lost.
        assert report.data_loss == 0
        assert all(not c.degraded for c in report.cycles)
        assert report.submitted_ok == 10

    def test_mvcc_conflict_storm_retries_to_success(self):
        from repro.chaos import ChaosScenario, MessageChaosOn

        registry = self._fresh_registry()
        scenario = ChaosScenario(
            name="retry-storm",
            config=FrameworkConfig(
                consensus="bft", peers_per_org=2, n_ipfs_nodes=3, resilience_seed=3
            ),
            faults=[
                MessageChaosOn(at_cycle=2, seed=3, drop_rate=0.45),
                MessageChaosOn(at_cycle=8, seed=4, drop_rate=0.0),
            ],
            n_cycles=14,
            seed=3,
        )
        report = scenario.run()
        assert report.data_loss == 0
        counters = registry.snapshot()["counters"]
        assert any(k.startswith("retries_total") for k in counters)
        # Once the storm lifts, submissions recover.
        assert all(c.submitted for c in report.cycles if c.cycle >= 11)

    def test_breaker_opens_under_sustained_failure_then_half_opens(self):
        from repro.chaos import ChaosScenario, ValidatorCrash, ValidatorRestart

        registry = self._fresh_registry()
        scenario = ChaosScenario(
            name="breaker-cycle",
            config=FrameworkConfig(consensus="bft", resilience_seed=4),
            faults=[
                # Losing 2 of 4 validators destroys the 2f+1 quorum: every
                # submit fails until the restarts, tripping the breaker.
                ValidatorCrash(at_cycle=3, name="validator-2"),
                ValidatorCrash(at_cycle=3, name="validator-3"),
                ValidatorRestart(at_cycle=9, name="validator-2"),
                ValidatorRestart(at_cycle=9, name="validator-3"),
            ],
            n_cycles=18,
            seed=4,
        )
        report = scenario.run()
        counters = registry.snapshot()["counters"]
        assert counters.get('circuit_transitions_total{dep="fabric",to="open"}', 0) >= 1
        assert counters.get(
            'circuit_transitions_total{dep="fabric",to="half_open"}', 0
        ) >= 1
        assert counters.get('circuit_transitions_total{dep="fabric",to="closed"}', 0) >= 1
        assert report.data_loss == 0
        assert report.cycles[-1].submitted      # recovered after restart

    def test_same_seed_reproduces_the_same_recovery_trace(self):
        from repro.chaos import ChaosScenario, IpfsNodeCrash, MessageChaosOn

        def run_once():
            self._fresh_registry()
            return ChaosScenario(
                name="repro-trace",
                config=FrameworkConfig(
                    consensus="bft", peers_per_org=2, n_ipfs_nodes=3,
                    resilience_seed=6,
                ),
                faults=[
                    MessageChaosOn(at_cycle=1, seed=6, drop_rate=0.3),
                    IpfsNodeCrash(at_cycle=4, peer_id="ipfs-2"),
                ],
                n_cycles=12,
                seed=6,
            ).run()

        first, second = run_once(), run_once()
        assert first.fingerprint() == second.fingerprint()
        assert [c.key() for c in first.cycles] == [c.key() for c in second.cycles]
