"""End-to-end durability: WAL replay, checkpoint restore, damaged-WAL state
transfer, orderer crash semantics and log compaction, and SAN307."""

import dataclasses
import hashlib

import pytest

from repro.analysis.runtime import Sanitizer
from repro.core import Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.errors import DurabilityError, RecoveryError
from repro.fabric.snapshot import SnapshotDelta, states_agree
from repro.fabric.tx import ValidationCode
from repro.fabric.worldstate import Version
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.storage import CORRUPT, TRUNCATE, DurabilityManager
from repro.storage.codec import block_to_doc, tx_to_doc
from repro.storage.persistence import CHECKPOINT_FILE, DELTA_PREFIX, WAL_LOG
from repro.util.serialization import canonical_json, from_canonical_json

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


def pending_batches(manager):
    """Durably recorded batches (request id -> tx ids) still in the orderer
    log: what was cut since the last checkpoint compacted it."""
    records, _tail = manager.orderer_store.read_log(WAL_LOG)
    docs = [from_canonical_json(payload) for payload in records]
    return {d["request_id"]: _record_ids(d) for d in docs if d["type"] == "batch"}


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
        batches = pending_batches(manager)
        batched_txs = {tx for txs in batches.values() for tx in txs}
        assert len(batched_txs) == 2  # cut since, not yet under a checkpoint
        ledger = channel.peers["peer0.org1"].ledger
        assert {ledger.find_tx(tx)[0].number for tx in batched_txs} == {4, 5}
        dropped = manager.crash_orderer()  # queue is empty: batches already cut
        assert dropped == []
        assert pending_batches(manager) == batches  # synced records survive
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
        assert pending_batches(manager) == {}
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
        assert list(pending_batches(manager).values()) == [[waiting]]

    def test_a_state_transferred_first_peer_does_not_pin_old_records(self):
        """A peer adopted from a snapshot indexes no tx below its base; when
        it is the first to checkpoint at a height, the other ledgers still
        vouch for the records of the blocks it skipped."""
        net, channel, alice, manager = durable_network(
            checkpoint_interval=4, consensus="bft"
        )
        first = next(iter(channel.peers))
        put_n(channel, alice, 5)  # compacted at 4; block 5's records remain
        assert len(pending_batches(manager)) == 1
        manager.damage_wal(first, CORRUPT)
        assert manager.crash_and_recover(first).kind == "state_transfer"
        assert channel.peers[first].ledger.base_height == 5  # indexes no tx below
        put_n(channel, alice, 3, prefix="later")  # `first` checkpoints height 8 first
        assert pending_batches(manager) == {}
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


class TestSan307:
    def _attach(self, channel):
        sanitizer = Sanitizer(frozenset(["recovery"]))
        sanitizer.channel = channel
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
        """Height-creep gate on exact counts: after the same 8-block delta,
        one checkpoint serialises the same number of values, and hashes and
        writes about the same number of bytes, on a ~500-key world as on a
        ~5000-key one — what changed, not what exists."""
        from repro.bench.iocount import counting_io
        from repro.obs.prof import profiling
        from repro.trust import SourceTier

        counts, io_bytes = {}, {}
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
                        identity, "data_upload", "store",
                        [CID.for_data(b"%d" % i).encode(), "{}"],
                    )

            commit_eight_blocks(0)
            manager.checkpoint_peer(peer)  # fills the caches
            commit_eight_blocks(8)
            with profiling() as profiler, counting_io() as io:
                manager.checkpoint_peer(peer)
            io_bytes[padding] = io
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
        assert counts[500] < 100  # a few per changed key
        for what in ("hashed", "written"):
            small, large = io_bytes[500][what], io_bytes[5000][what]
            assert 0 < large <= 2 * small, (what, small, large)


def deltas_on_disk(manager, name):
    return [f for f in manager.stores[name].files() if f.startswith(DELTA_PREFIX)]


def based_network(checkpoint_interval=2):
    """A network whose first checkpoint (height 2) is a base much larger than
    a two-block delta of small puts, so that deltas pile up before a fold."""
    net, channel, alice, manager = durable_network(checkpoint_interval=checkpoint_interval)
    channel.invoke(alice, "kv", "put", ["big", "x" * 4000])
    channel.invoke(alice, "kv", "put", ["k0", "0"])
    return net, channel, alice, manager


class TestDeltaCheckpoints:
    @pytest.mark.parametrize("n_deltas", [0, 1, 5])
    def test_recovery_from_the_base_and_its_deltas(self, n_deltas):
        net, channel, alice, manager = based_network()
        put_n(channel, alice, 2 * n_deltas + 1, prefix="d")  # one block past the last
        name = "peer1.org1"
        assert len(deltas_on_disk(manager, name)) == n_deltas
        peer, other = reference(channel, name)
        outcome = manager.crash_and_recover(name)
        assert outcome.kind == "wal_replay" and outcome.wal_damage == ""
        assert outcome.checkpoint_height == 2 + 2 * n_deltas
        assert outcome.replayed_blocks == 1
        assert states_agree(peer, other)
        assert deltas_on_disk(manager, name) == []  # recovery ends in a fold

    def test_a_checkpoint_writes_only_the_changed_lines(self):
        net, channel, alice, manager = based_network()
        store = manager.stores["peer1.org1"]
        base = store.read_file(CHECKPOINT_FILE)
        put_n(channel, alice, 2, prefix="d")
        (delta,) = deltas_on_disk(manager, "peer1.org1")
        assert store.read_file(CHECKPOINT_FILE) == base
        raw = store.read_file(delta)
        assert len(raw) < len(base) / 4
        assert b'"d0"' in raw and b'"d1"' in raw and b"big" not in raw

    def test_deleted_keys_stay_deleted_across_a_delta(self):
        net, channel, alice, manager = based_network()
        channel.invoke(alice, "kv", "delete", ["k0"])
        channel.invoke(alice, "kv", "put", ["d0", "0"])
        assert len(deltas_on_disk(manager, "peer1.org1")) == 1
        peer, other = reference(channel, "peer1.org1")
        manager.crash_and_recover("peer1.org1")
        assert peer.world.get("k0") is None
        assert states_agree(peer, other)

    def test_recovery_across_a_fold(self):
        net, channel, alice, manager = based_network()
        name = "peer1.org1"
        store = manager.stores[name]
        base = store.read_file(CHECKPOINT_FILE)
        channel.invoke(alice, "kv", "put", ["big", "y" * 4000])
        channel.invoke(alice, "kv", "put", ["d0", "0"])  # height 4: a delta as big as the base
        assert len(deltas_on_disk(manager, name)) == 1
        put_n(channel, alice, 2, prefix="e")  # height 6: the deltas reached the base: fold
        assert deltas_on_disk(manager, name) == []
        assert store.read_file(CHECKPOINT_FILE) != base
        put_n(channel, alice, 3, prefix="f")  # height 8: one delta on the new base
        assert len(deltas_on_disk(manager, name)) == 1
        peer, other = reference(channel, name)
        outcome = manager.crash_and_recover(name)
        assert (outcome.kind, outcome.checkpoint_height, outcome.replayed_blocks) == (
            "wal_replay", 8, 1,
        )
        assert peer.world.get("big") == b"y" * 4000
        assert states_agree(peer, other)

    def test_a_corrupt_delta_goes_to_state_transfer(self):
        net, channel, alice, manager = based_network()
        put_n(channel, alice, 4, prefix="d")  # two deltas, the WAL empty after the last
        name = "peer1.org1"
        newest = deltas_on_disk(manager, name)[-1]
        assert newest in manager.damage_wal(name, CORRUPT)
        peer, other = reference(channel, name)
        outcome = manager.crash_and_recover(name)
        assert (outcome.kind, outcome.wal_damage) == ("state_transfer", "invalid")
        assert states_agree(peer, other)

    def test_a_delta_that_does_not_chain_goes_to_state_transfer(self):
        net, channel, alice, manager = based_network()
        put_n(channel, alice, 5, prefix="d")
        name = "peer1.org1"
        store = manager.stores[name]
        first, second = deltas_on_disk(manager, name)
        # A delta that is whole but names another predecessor: its own hash
        # holds, its prev link does not.
        delta = SnapshotDelta.from_bytes(store.read_file(second))
        header, rest = delta.body.split(b"\n", 1)
        doc = from_canonical_json(header)
        doc["prev"] = "0" * 64
        body = canonical_json(doc) + b"\n" + rest
        forged = SnapshotDelta(body=body, digest=hashlib.sha256(body).hexdigest())
        store.write_file(second, forged.to_bytes())
        store.sync()
        peer, other = reference(channel, name)
        outcome = manager.crash_and_recover(name)
        assert (outcome.kind, outcome.wal_damage) == ("state_transfer", "invalid")
        assert states_agree(peer, other)

    def test_a_lost_delta_breaks_the_chain(self):
        net, channel, alice, manager = based_network()
        put_n(channel, alice, 5, prefix="d")
        name = "peer1.org1"
        store = manager.stores[name]
        store.delete_file(deltas_on_disk(manager, name)[0])
        store.sync()
        outcome = manager.crash_and_recover(name)
        assert outcome.kind == "state_transfer"

    def test_a_fold_lost_before_its_sync_leaves_the_old_base_and_deltas(self):
        net, channel, alice, manager = based_network()
        name = "peer1.org1"
        store = manager.stores[name]
        channel.invoke(alice, "kv", "put", ["big", "y" * 4000])
        channel.invoke(alice, "kv", "put", ["d0", "0"])  # the next checkpoint folds
        manager.checkpoint_interval = 0
        channel.invoke(alice, "kv", "put", ["d1", "1"])  # height 5, in the WAL only
        files = {f: store.read_file(f) for f in store.files()}

        class PowerCut(Exception):
            pass

        def power_cut():
            raise PowerCut

        store.sync = power_cut
        with pytest.raises(PowerCut):
            manager.checkpoint_peer(channel.peers[name])
        del store.sync
        assert {f: store.read_file(f) for f in store.files()} == files
        assert store._pending_files[CHECKPOINT_FILE] is not None  # the fold, staged
        assert all(store._pending_files[f] is None for f in deltas_on_disk(manager, name))
        peer, other = reference(channel, name)
        manager.checkpoint_interval = 2
        outcome = manager.crash_and_recover(name)
        assert (outcome.kind, outcome.checkpoint_height, outcome.replayed_blocks) == (
            "wal_replay", 4, 1,
        )
        assert states_agree(peer, other)

    def test_damage_without_deltas_falls_back_to_the_base(self):
        net, channel, alice, manager = based_network()
        detail = manager.damage_wal("peer1.org1", CORRUPT)
        assert repr(CHECKPOINT_FILE) in detail
        assert manager.crash_and_recover("peer1.org1").kind == "state_transfer"


def _record_ids(doc):
    """Which transactions an orderer-log record is about, read from its body."""
    if doc["type"] == "batch":
        return [tx["proposal"]["tx_id"] for tx in doc["txs"]]
    return [doc["tx_id"]]


class TestOrdererLogCompaction:
    def test_a_scripted_run_keeps_what_decoding_every_record_would(self):
        """Compaction reads the tx ids it keeps in memory; at every
        compaction the log it leaves, and ``pending_batches``, must equal
        what decoding each durable record's body and dropping the ones on a
        ledger gives — across an orderer crash, which rebuilds the memory."""
        net, channel, alice, manager = durable_network(
            checkpoint_interval=0, consensus="bft", max_batch_size=2
        )
        ledgers = [p.ledger for p in channel.peers.values()]
        store, compact = manager.orderer_store, manager._compact_orderer_log
        dropped = []

        def checked():
            store.sync()
            records, _ = store.read_log(WAL_LOG)
            keep = [
                payload
                for payload in records
                if not all(
                    any(led.has_tx(t) for led in ledgers)
                    for t in _record_ids(from_canonical_json(payload))
                )
            ]
            compact()
            assert store.read_log(WAL_LOG) == (keep, "")
            docs = [from_canonical_json(payload) for payload in keep]
            assert pending_batches(manager) == {
                d["request_id"]: _record_ids(d) for d in docs if d["type"] == "batch"
            }
            dropped.append(len(records) - len(keep))

        manager._compact_orderer_log = checked
        peer = channel.peers["peer0.org1"]
        queued = [
            channel.invoke_async(alice, "kv", "put", [f"a{i}", "v"]) for i in range(3)
        ][2:]  # two cut, one queued
        manager.checkpoint_peer(peer)
        assert manager.crash_orderer() == queued
        channel.flush()
        manager.checkpoint_peer(peer)
        put_n(channel, alice, 3, prefix="b")
        channel.invoke_async(alice, "kv", "put", ["queued", "v"])
        manager.checkpoint_peer(peer)
        channel.flush()
        manager.checkpoint_peer(peer)
        assert len(dropped) == 4 and sum(dropped) > 0
        assert manager.orderer_store.log_bytes(WAL_LOG) > 0  # the crash's lost submit stays


class TestWalRecords:
    """Every WAL record is byte-identical to ``canonical_json`` of its
    document, however many records share a transaction's one rendering."""

    @pytest.fixture(scope="class")
    def journaled(self):
        from repro.fabric.tx import Endorsement

        net, channel, alice, manager = durable_network(
            checkpoint_interval=0, consensus="bft"
        )
        put_n(channel, alice, 2)
        carrier, *riders = [
            channel.assemble(*channel.endorse(alice, "kv", "put", [f"r{i}", "v"]))
            for i in range(3)
        ]
        channel.orderer.submit(carrier, riders=tuple(riders))
        channel.flush()
        good = channel.assemble(*channel.endorse(alice, "kv", "put", ["forged", "v"]))
        forged = dataclasses.replace(
            good,
            endorsements=tuple(
                Endorsement(endorser=e.endorser, signature=b"\x00" * 64)
                for e in good.endorsements
            ),
        )
        channel.orderer.submit(forged)
        channel.flush()
        assert channel.result(forged.tx_id).code is ValidationCode.REJECTED_BY_CONSENSUS
        return channel, manager

    def test_block_records(self, journaled):
        channel, manager = journaled
        sizes, rejected = set(), set()
        for peer in channel.peers.values():
            records, _ = manager.stores[peer.name].read_log(WAL_LOG)
            assert len(records) == channel.height()
            for number, payload in enumerate(records):
                block = peer.ledger.block(number)
                expected = {
                    "type": "block",
                    "block": block_to_doc(block),
                    "rejected": sorted(channel.rejected_by_block.get(number, ())),
                    "index_epoch": None,
                }
                assert payload == canonical_json(expected)
                sizes.add(len(block.transactions))
                rejected.update(expected["rejected"])
        assert max(sizes) == 3 and rejected  # riders and a consensus rejection

    def test_batch_records(self, journaled):
        channel, manager = journaled
        ledger = channel.peers["peer0.org1"].ledger
        records, _ = manager.orderer_store.read_log(WAL_LOG)
        batches = [from_canonical_json(p) for p in records]
        batches = [(p, d) for p, d in zip(records, batches) if d["type"] == "batch"]
        assert len(batches) == channel.height()
        for payload, doc in batches:
            txs = [ledger.find_tx(t)[1] for t in _record_ids(doc)]
            expected = {
                "type": "batch",
                "request_id": doc["request_id"],
                "txs": [tx_to_doc(tx) for tx in txs],
            }
            assert payload == canonical_json(expected)


class TestRottedCheckpoints:
    def test_a_base_whose_header_rotted_is_folded_over_not_chained_onto(self):
        """A checkpoint reads the digest it chains onto from the newest piece
        on disk; when rot made that unreadable it folds instead of failing
        the commit that triggered it."""
        net, channel, alice, manager = durable_network(checkpoint_interval=2)
        put_n(channel, alice, 2)  # a small base at height 2
        name = "peer1.org1"
        store = manager.stores[name]
        base = store.read_file(CHECKPOINT_FILE)
        store._files[CHECKPOINT_FILE] = b"\xff" + base[1:]  # its header, unreadable
        put_n(channel, alice, 2, prefix="after")  # height 4 checkpoints: a fold
        assert deltas_on_disk(manager, name) == []
        assert store.read_file(CHECKPOINT_FILE).startswith(b"{")
        peer, other = reference(channel, name)
        assert manager.crash_and_recover(name).kind == "wal_replay"
        assert states_agree(peer, other)
