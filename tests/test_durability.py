"""End-to-end durability: WAL replay, checkpoint restore, damaged-WAL state
transfer, orderer crash semantics, validator frontiers, and SAN307."""

import pytest

from repro.analysis.runtime import Sanitizer
from repro.core import Framework, FrameworkConfig
from repro.errors import DurabilityError, RecoveryError
from repro.fabric.snapshot import states_agree
from repro.fabric.worldstate import Version
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.storage import CORRUPT, TRUNCATE, DurabilityManager
from repro.storage.persistence import WAL_LOG
from repro.util.serialization import from_canonical_json

from tests.fabric_helpers import KvChaincode, make_network


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


def durable_network(checkpoint_interval=4, wal_sync_every=1, **kwargs):
    """A two-org network journaling from genesis, like Framework wires it."""
    net, channel, alice = make_network(peers_per_org=2, **kwargs)
    manager = DurabilityManager(
        channel,
        checkpoint_interval=checkpoint_interval,
        wal_sync_every=wal_sync_every,
    )
    return net, channel, alice, manager


def put_n(channel, alice, n, prefix="k"):
    for i in range(n):
        channel.invoke(alice, "kv", "put", [f"{prefix}{i}", str(i)])


def reference(channel, name):
    peer = channel.peers[name]
    others = [p for p in channel.peers.values() if p is not peer]
    return peer, others[0]


class TestWalReplay:
    def test_amnesia_crash_replays_to_parity(self):
        net, channel, alice, manager = durable_network(checkpoint_interval=4)
        put_n(channel, alice, 6)
        peer, other = reference(channel, "peer1.org1")
        outcome = manager.crash_and_recover("peer1.org1")
        assert outcome.kind == "wal_replay"
        assert outcome.lag_blocks == 0
        assert peer.ledger.height == other.ledger.height
        assert states_agree(peer, other)

    def test_mid_interval_crash_replays_only_past_the_checkpoint(self):
        net, channel, alice, manager = durable_network(checkpoint_interval=4)
        put_n(channel, alice, 6)  # checkpoint at 4, WAL holds 5..6
        outcome = manager.crash_and_recover("peer1.org1")
        assert outcome.checkpoint_height == 4
        assert outcome.replayed_blocks == 2

    def test_torn_write_drops_the_tail_and_catches_up(self):
        net, channel, alice, manager = durable_network(
            checkpoint_interval=8, wal_sync_every=2
        )
        put_n(channel, alice, 5)  # height 5: block 5 unsynced
        peer, other = reference(channel, "peer1.org1")
        outcome = manager.crash_and_recover("peer1.org1", torn=True)
        assert outcome.wal_damage == "torn_tail"
        assert outcome.kind == "wal_replay"
        assert outcome.caught_up_blocks >= 1  # delivered, not replayed
        assert states_agree(peer, other)

    def test_recovery_checkpoints_so_the_next_crash_is_cheap(self):
        net, channel, alice, manager = durable_network(checkpoint_interval=4)
        put_n(channel, alice, 6)
        manager.crash_and_recover("peer1.org1")
        second = manager.crash_and_recover("peer1.org1")
        assert second.kind == "wal_replay"
        assert second.replayed_blocks == 0  # fresh checkpoint covers it all

    def test_unknown_peer_is_a_typed_error(self):
        _, _, _, manager = durable_network()
        with pytest.raises(DurabilityError, match="unknown peer"):
            manager.crash_and_recover("peer9.org9")


class TestStateTransfer:
    def test_corrupt_wal_falls_back_to_verified_state_transfer(self):
        net, channel, alice, manager = durable_network(
            checkpoint_interval=8, wal_sync_every=1
        )
        put_n(channel, alice, 5)
        peer, other = reference(channel, "peer1.org1")
        assert "frame" in manager.damage_wal("peer1.org1", CORRUPT)
        outcome = manager.crash_and_recover("peer1.org1")
        assert outcome.kind == "state_transfer"
        assert outcome.wal_damage == "corrupt"
        assert peer.ledger.height == other.ledger.height
        assert states_agree(peer, other)

    def test_truncated_wal_recovers_with_zero_data_loss(self):
        net, channel, alice, manager = durable_network(
            checkpoint_interval=8, wal_sync_every=1
        )
        put_n(channel, alice, 5)
        peer, other = reference(channel, "peer3.org2")
        manager.damage_wal("peer3.org2", TRUNCATE)
        outcome = manager.crash_and_recover("peer3.org2")
        assert states_agree(peer, other)
        assert outcome.height == other.ledger.height

    def test_no_donor_degrades_to_full_resync(self):
        net, channel, alice, manager = durable_network(checkpoint_interval=8)
        put_n(channel, alice, 3)
        manager.damage_wal("peer1.org1", CORRUPT)
        for name, p in channel.peers.items():
            if name != "peer1.org1":
                p.online = False
        outcome = manager.crash_and_recover("peer1.org1")
        assert outcome.kind == "full_resync"
        assert manager.stats.full_resyncs == 1

    @pytest.mark.parametrize("half", ["head hash", "state digest"])
    def test_donors_that_disagree_on_either_half_are_refused(self, half):
        """Donor agreement is the audit's replica-parity check: same refusal,
        same wording, whichever of the two halves differs."""
        import dataclasses

        net, channel, alice, manager = durable_network(checkpoint_interval=8)
        put_n(channel, alice, 3)
        liar = channel.peers["peer0.org1"]
        if half == "head hash":
            last = liar.ledger._blocks[-1]
            liar.ledger._blocks[-1] = dataclasses.replace(
                last, header=dataclasses.replace(last.header, timestamp=-1.0)
            )
        else:
            liar.world._values["k0"] = b"evil"
        with pytest.raises(RecoveryError, match=f"{half} diverges .*peer0.org1="):
            manager._state_transfer(channel.peers["peer1.org1"])
        manager.damage_wal("peer1.org1", CORRUPT)
        outcome = manager.crash_and_recover("peer1.org1")
        assert outcome.kind == "full_resync"
        assert states_agree(channel.peers["peer1.org1"], channel.peers["peer3.org2"])

    def test_recovery_metrics_are_exported(self):
        _, channel, alice, manager = durable_network(checkpoint_interval=4)
        put_n(channel, alice, 5)
        manager.crash_and_recover("peer1.org1")
        manager.damage_wal("peer2.org2", CORRUPT)
        manager.crash_and_recover("peer2.org2")
        counters = get_registry().snapshot()["counters"]
        assert counters.get('recoveries_total{kind="wal_replay"}') == 1
        assert counters.get('recoveries_total{kind="state_transfer"}') == 1
        assert counters.get('wal_damage_total{mode="corrupt"}') == 1
        assert counters.get("checkpoints_total", 0) >= 2


class TestOrdererDurability:
    def test_crash_drops_queued_but_uncut_txs_and_counts_them(self):
        net, channel, alice, manager = durable_network(
            consensus="bft", max_batch_size=10
        )
        tx_ids = [
            channel.invoke_async(alice, "kv", "put", [f"q{i}", str(i)])
            for i in range(3)
        ]
        dropped = manager.crash_orderer()
        assert sorted(dropped) == sorted(tx_ids)
        counters = get_registry().snapshot()["counters"]
        assert counters.get('txs_dropped_total{reason="orderer_crash"}') == 3
        channel.flush()  # nothing left to cut
        assert channel.height() == 0

    def test_batched_txs_survive_because_the_batch_wal_is_synced(self):
        net, channel, alice, manager = durable_network(
            checkpoint_interval=4, consensus="bft", max_batch_size=2
        )
        put_n(channel, alice, 6)  # checkpoint at 4 covers the first four batches
        batches = manager.pending_batches()
        batched_txs = {tx for txs in batches.values() for tx in txs}
        assert len(batched_txs) == 2  # cut since, not yet under a checkpoint
        ledger = channel.peers["peer0.org1"].ledger
        assert {ledger.find_tx(tx)[0].number for tx in batched_txs} == {4, 5}
        dropped = manager.crash_orderer()  # queue is empty: batches already cut
        assert dropped == []
        assert manager.pending_batches() == batches  # synced records survive
        assert channel.height() == 6  # and every batched tx committed

    def test_orderer_log_is_bounded_by_the_checkpoint_interval(self):
        """The orderer log holds what no checkpoint covers yet, so its size
        right after a checkpoint does not grow with the chain."""
        net, channel, alice, manager = durable_network(
            checkpoint_interval=4, consensus="bft"
        )
        sizes, peaks = [], []
        for interval in range(5):
            put_n(channel, alice, 3, prefix=f"i{interval}-")
            peaks.append(manager.orderer_store.log_bytes(WAL_LOG))
            put_n(channel, alice, 1, prefix=f"i{interval}-last")
            sizes.append(manager.orderer_store.log_bytes(WAL_LOG))
        assert channel.height() == 20
        assert sizes == [0] * 5  # everything submitted is committed and covered
        assert manager.pending_batches() == {}
        assert peaks[0] > 0 and max(peaks) <= 1.1 * peaks[0]

    def test_compaction_keeps_what_is_not_yet_on_the_ledger(self):
        net, channel, alice, manager = durable_network(
            checkpoint_interval=0, consensus="bft", max_batch_size=10
        )
        put_n(channel, alice, 2)  # committed; cadence off, so nothing compacted yet
        waiting = channel.invoke_async(alice, "kv", "put", ["waiting", "v"])
        manager.checkpoint_peer(channel.peers["peer0.org1"])
        records, _ = manager.orderer_store.read_log(WAL_LOG)
        assert [from_canonical_json(r) for r in records] == [
            {"type": "submit", "tx_id": waiting}
        ]
        channel.flush()  # cut and committed, but no checkpoint covers it yet
        assert list(manager.pending_batches().values()) == [[waiting]]

    def test_a_state_transferred_first_peer_does_not_pin_old_records(self):
        """A peer adopted from a snapshot indexes no tx below its base; when
        it is the first to checkpoint at a height, the other ledgers still
        vouch for the records of the blocks it skipped."""
        net, channel, alice, manager = durable_network(
            checkpoint_interval=4, consensus="bft"
        )
        first = next(iter(channel.peers))
        put_n(channel, alice, 5)  # compacted at 4; block 5's records remain
        assert len(manager.pending_batches()) == 1
        manager.damage_wal(first, CORRUPT)
        assert manager.crash_and_recover(first).kind == "state_transfer"
        assert channel.peers[first].ledger.base_height == 5  # indexes no tx below
        put_n(channel, alice, 3, prefix="later")  # `first` checkpoints height 8 first
        assert manager.pending_batches() == {}
        assert manager.orderer_store.log_bytes(WAL_LOG) == 0

    def test_resilient_invoke_resubmits_after_an_orderer_crash(self):
        """Satellite path: the client's retry layer re-proposes a tx the
        orderer crash silently dropped between submit and flush."""
        framework = Framework(
            FrameworkConfig(
                consensus="bft",
                durability=True,
                checkpoint_interval=4,
                max_batch_size=8,
                resilience_seed=0,
            )
        )
        framework.channel.install_chaincode(KvChaincode())
        channel, manager = framework.channel, framework.durability
        orig_flush = channel.orderer.flush
        crashed = {"n": 0}

        def crashing_flush():
            if crashed["n"] == 0:
                crashed["n"] += 1
                manager.crash_orderer()
            return orig_flush()

        channel.orderer.flush = crashing_flush
        result = framework.resilient_invoke(
            framework.admin, "kv", "put", ["resubmitted", "yes"]
        )
        assert result.ok
        assert crashed["n"] == 1
        counters = get_registry().snapshot()["counters"]
        assert counters.get('txs_dropped_total{reason="orderer_crash"}', 0) >= 1
        assert any(k.startswith("retries_total") for k in counters)


class TestValidatorFrontiers:
    def test_frontier_digests_verify_against_live_logs(self):
        net, channel, alice, manager = durable_network(
            consensus="bft", checkpoint_interval=2
        )
        put_n(channel, alice, 4)
        verdict = manager.verify_validator_frontiers()
        assert len(verdict) == 4
        assert all(verdict.values())

    def test_solo_orderer_has_no_frontiers(self):
        _, channel, alice, manager = durable_network(consensus="solo")
        put_n(channel, alice, 2)
        assert manager.verify_validator_frontiers() == {}
        assert manager.checkpoint_validators() == 0


class TestSan307:
    def _attach(self, channel):
        sanitizer = Sanitizer(frozenset(["recovery"]))
        sanitizer.channel = channel
        channel.sanitizer = sanitizer
        for peer in channel.peers.values():
            peer.sanitizer = sanitizer
        return sanitizer

    def test_clean_recovery_produces_no_findings(self):
        net, channel, alice, manager = durable_network(checkpoint_interval=4)
        sanitizer = self._attach(channel)
        put_n(channel, alice, 5)
        manager.crash_and_recover("peer1.org1")
        report = sanitizer.report()
        assert report.findings == []
        assert report.checks["recovery"] == 1

    def test_post_recovery_divergence_is_flagged(self):
        net, channel, alice, manager = durable_network(checkpoint_interval=4)
        sanitizer = self._attach(channel)
        put_n(channel, alice, 5)
        peer = channel.peers["peer1.org1"]
        manager.crash_and_recover("peer1.org1")
        peer.world.apply_write("k0", b"tampered", Version(99, 0), "evil", 0.0)
        sanitizer.check_recovery(peer, channel)
        findings = sanitizer.report().findings
        assert any(
            f.rule_id == "SAN307" and "diverges" in f.message for f in findings
        )


class TestCheckpointCost:
    def test_checkpoint_serialisation_does_not_grow_with_the_world(self):
        """Height-creep gate on exact call counts: after the same 8-block
        delta, one checkpoint serialises the same number of values on a
        ~500-key world as on a ~5000-key one — what changed, not what exists."""
        from repro.obs.prof import profiling
        from repro.trust import SourceTier

        counts = {}
        for padding in (500, 5000):
            framework = Framework(
                FrameworkConfig(
                    consensus="bft", durability=True, checkpoint_interval=0
                )
            )
            channel, manager = framework.channel, framework.durability
            identity = framework.register_source("cam", tier=SourceTier.TRUSTED)
            for peer in channel.peers.values():
                for i in range(padding):
                    peer.world.apply_write(
                        f"pad:{i:05d}", b"x" * 64, Version(0, 0), "pad", 0.0
                    )
            peer, other = channel.peers.values()

            def commit_eight_blocks(start):
                for i in range(start, start + 8):
                    channel.invoke(
                        identity, "data_upload", "add_data",
                        [f"cid-{i}", "a" * 64, "{}"],
                    )

            commit_eight_blocks(0)
            manager.checkpoint_peer(peer)  # fills the caches
            commit_eight_blocks(8)
            with profiling() as profiler:
                manager.checkpoint_peer(peer)
            calls = {}
            for stat in profiler.center_stats():
                calls[stat.center] = calls.get(stat.center, 0) + stat.calls
            assert calls["storage.checkpoint"] == 1
            assert len(peer.world) >= padding
            counts[padding] = calls["serialize.canonical_json"]
            manager.crash_and_recover(peer.name)
            assert states_agree(peer, other)
            assert peer.index.root() == other.index.root()
        assert counts[500] == counts[5000]
        assert counts[500] < 100  # a few per changed key, posting and block
