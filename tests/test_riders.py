"""Rider writes: a read's access event, an ACL denial's log entry and a trust
score snapshot cut no block of their own — each is endorsed under its real
creator and ordered in the same consensus instance and block as the next
carrier transaction (or by a flush, when nothing else is queued)."""

import json

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.core.framework import MAX_PENDING_RIDERS
from repro.errors import AccessDeniedError, ChaincodeError, ReproError
from repro.fabric.channel import DeferredCall
from repro.net import FaultAction
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.trust import SourceTier

from tests.fabric_helpers import make_network

META = {"timestamp": 1.0, "detections": []}


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


def deployment(**config):
    framework = Framework(FrameworkConfig(**config))
    source = Client(framework, framework.register_source("cam-1", tier=SourceTier.TRUSTED))
    reader = Client(framework, framework.register_source("analyst", tier=SourceTier.TRUSTED))
    return framework, source, reader


def lineage(framework, entry_id):
    """The chain as committed, read without draining the rider queue."""
    return json.loads(
        framework.channel.query(framework.admin, "provenance", "lineage", [entry_id])
    )


def block_of(channel, tx_id):
    peer = next(iter(channel.peers.values()))
    return peer.ledger.block(channel.result(tx_id).block_number)


def counter(name):
    return get_registry().snapshot()["counters"].get(name, 0)


class _Deferred:
    """A rider source holding a fixed list of calls."""

    def __init__(self, calls):
        self.calls = list(calls)
        self.settled = []

    def take(self):
        calls, self.calls = self.calls, []
        return calls

    def settle(self, call, committed):
        self.settled.append((call.args, committed))


class _Journal:
    def __init__(self):
        self.submitted = []

    def record_submit(self, tx):
        self.submitted.append(tx.tx_id)

    def record_batch(self, request_id, txs):
        pass


class TestOrderer:
    def _txs(self, channel, alice, n):
        return [
            channel.assemble(*channel.endorse(alice, "kv", "put", [f"k{i}", "v"]))
            for i in range(n)
        ]

    def test_solo_counts_carriers_only_and_journals_riders(self):
        _, channel, alice = make_network(max_batch_size=2)
        journal = channel.orderer.journal = _Journal()
        a, r1, r2, b = self._txs(channel, alice, 4)
        channel.orderer.submit(a, riders=(r1, r2))
        assert channel.orderer.blocks_cut == 0  # 1 carrier of 2, riders aside
        channel.orderer.submit(b)
        assert channel.orderer.blocks_cut == 1
        block = next(iter(channel.peers.values())).ledger.block(0)
        assert [tx.tx_id for tx in block.transactions] == [t.tx_id for t in (a, r1, r2, b)]
        assert journal.submitted == [t.tx_id for t in (a, r1, r2, b)]

    def test_bft_decided_batch_is_exactly_one_block(self):
        _, channel, alice = make_network(consensus="bft")
        journal = channel.orderer.journal = _Journal()
        carrier, *riders = self._txs(channel, alice, 3)
        channel.orderer.submit(carrier, riders=riders)
        channel.orderer.flush()
        assert channel.orderer.blocks_cut == 1
        assert channel.orderer.batches_ordered == 1
        assert channel.result(riders[-1].tx_id).ok
        decisions = {channel.result(t.tx_id).decision for t in (carrier, *riders)}
        assert len(decisions) == 1 and None not in decisions
        assert journal.submitted == [t.tx_id for t in (carrier, *riders)]


class TestChannel:
    def test_deferred_calls_ride_the_next_carrier(self):
        _, channel, alice = make_network()
        channel.riders = _Deferred([
            DeferredCall(alice, "kv", "put", ("rider-a", "1")),
            DeferredCall(alice, "kv", "put", ("rider-b", "2")),
        ])
        result = channel.invoke(alice, "kv", "put", ["carrier", "0"])
        assert channel.height() == 1
        block = block_of(channel, result.tx_id)
        assert [tx.proposal.args[0] for tx in block.transactions] == [
            "carrier", "rider-a", "rider-b",
        ]
        assert channel.riders.settled == [(("rider-a", "1"), True), (("rider-b", "2"), True)]

    def test_flush_orders_deferred_calls_alone(self):
        _, channel, alice = make_network(consensus="bft")
        channel.riders = _Deferred([DeferredCall(alice, "kv", "put", ("solo", "1"))])
        channel.flush()
        assert channel.height() == 1
        assert channel.riders.settled == [(("solo", "1"), True)]
        channel.flush()  # nothing queued: no block
        assert channel.height() == 1

    def test_refused_endorsement_does_not_fail_the_carrier(self):
        _, channel, alice = make_network()
        channel.riders = _Deferred([DeferredCall(alice, "kv", "boom", ())])
        assert channel.invoke(alice, "kv", "put", ["carrier", "0"]).ok
        assert channel.riders.settled == [((), False)]


class TestRecordMany:
    def test_events_chain_in_one_transaction(self):
        framework, source, reader = deployment(consensus="solo")
        entry_id = source.submit(b"payload", dict(META)).entry_id
        events = [
            {"entry_id": entry_id, "action": "accessed", "actor": "a", "details": {}},
            {"entry_id": entry_id, "action": "flagged", "actor": "b", "details": {"x": 1}},
        ]
        result = framework.channel.invoke(
            reader.identity, "provenance", "record_many", [json.dumps(events)]
        )
        assert [e["seq"] for e in json.loads(result.response)] == [2, 3]
        chain = lineage(framework, entry_id)
        assert [e["action"] for e in chain] == ["captured", "stored", "accessed", "flagged"]
        assert chain[2]["tx_id"] == chain[3]["tx_id"] == result.tx_id
        assert reader.verify_provenance(entry_id)["length"] == 4

    @pytest.mark.parametrize("events_json", ["not json", "{}", "[1]", '[{"actor": "a"}]'])
    def test_malformed_events_are_refused(self, events_json):
        framework, _, reader = deployment(consensus="solo")
        with pytest.raises(ChaincodeError):
            framework.channel.invoke(
                reader.identity, "provenance", "record_many", [events_json]
            )


class TestReadsCutNoBlock:
    def test_retrieve_cuts_no_block_and_rides_the_next_submit(self):
        framework, source, reader = deployment()
        entry_id = source.submit(b"payload", dict(META)).entry_id
        orderer = framework.channel.orderer
        blocks = orderer.blocks_cut
        assert reader.retrieve(entry_id).verified
        assert orderer.blocks_cut == blocks
        assert [e["action"] for e in lineage(framework, entry_id)] == ["captured", "stored"]

        carrier = source.submit(b"next", dict(META))
        assert orderer.blocks_cut == blocks + 1
        accessed = lineage(framework, entry_id)[-1]
        assert (accessed["action"], accessed["actor"]) == ("accessed", "analyst")
        block = block_of(framework.channel, accessed["tx_id"])
        assert block.number == carrier.block_number
        tx = next(t for t in block.transactions if t.tx_id == accessed["tx_id"])
        assert tx.proposal.creator.name == "analyst"  # signed by its real reader

    def test_untrusted_submits_and_reads_cut_one_block_per_submit(self):
        """Each submit's score write rides the next submit; reads ride too."""
        framework = Framework(FrameworkConfig())
        source = Client(framework, framework.register_source("cam-u"))
        reader = Client(framework, framework.register_source("analyst", tier=SourceTier.TRUSTED))
        orderer = framework.channel.orderer
        blocks = orderer.blocks_cut
        n_submits, entry_ids = 5, []
        for i in range(n_submits):
            entry_ids.append(source.submit(b"frame %d" % i, dict(META)).entry_id)
            for entry_id in entry_ids[-2:]:
                reader.retrieve(entry_id)
        assert orderer.blocks_cut - blocks == n_submits
        history = json.loads(framework.channel.query(
            framework.admin, "trust_score", "score_history", ["cam-u"]
        ))
        assert len(history) == n_submits - 1  # the last one is still queued
        on_chain = reader.on_chain_trust("cam-u")  # drains the last score write
        assert on_chain["score"] == framework.trust.chain_record("cam-u")["score"]
        assert orderer.blocks_cut - blocks == n_submits + 1

    def test_readers_on_one_entry_land_in_order(self):
        """Two readers, and one of them twice, between two writes: the
        reads cut no block, and every event lands in the order read."""
        framework, source, reader = deployment()
        other = Client(framework, framework.register_source("auditor", tier=SourceTier.TRUSTED))
        entry_id = source.submit(b"payload", dict(META)).entry_id
        height = framework.channel.height()
        for client in (reader, other, reader):
            client.retrieve(entry_id)
        assert framework.channel.height() == height
        source.submit(b"next", dict(META))
        chain = reader.provenance(entry_id)  # drains what the carrier left
        assert [(e["action"], e["actor"]) for e in chain[2:]] == [
            ("accessed", "analyst"), ("accessed", "auditor"), ("accessed", "analyst"),
        ]
        assert reader.verify_provenance(entry_id)["length"] == 5
        assert counter("provenance_write_failures_total") == 0
        peer = next(iter(framework.channel.peers.values()))
        assert peer.stats.txs_invalid == 0  # waited its turn, never raced it

    def test_one_reader_twice_is_one_transaction(self):
        framework, source, reader = deployment()
        entry_id = source.submit(b"payload", dict(META)).entry_id
        reader.retrieve(entry_id)
        reader.retrieve(entry_id)
        source.submit(b"next", dict(META))
        chain = lineage(framework, entry_id)
        assert [e["seq"] for e in chain[2:]] == [2, 3]
        assert chain[2]["tx_id"] == chain[3]["tx_id"]

    def test_acl_denial_is_logged_by_a_rider(self):
        framework, source, _ = deployment(consensus="solo")
        entry_id = source.submit(b"secret", dict(META)).entry_id
        source.restrict(entry_id, ["org1"])
        outsider = Client(framework, framework.register_source("outsider", org="org2"))
        height = framework.channel.height()
        with pytest.raises(AccessDeniedError):
            outsider.retrieve(entry_id)
        assert framework.channel.height() == height
        log = outsider.access_log(entry_id)
        assert [(e["accessor"], e["outcome"]) for e in log] == [("outsider", "denied")]

    def test_pending_bound_forces_a_round(self):
        framework, source, reader = deployment(consensus="solo")
        entry_id = source.submit(b"payload", dict(META)).entry_id
        height = framework.channel.height()
        for _ in range(MAX_PENDING_RIDERS - 1):
            reader.retrieve(entry_id)
        assert framework.channel.height() == height
        reader.retrieve(entry_id)
        assert framework.channel.height() == height + 1
        assert framework.riders.pending() == 0
        assert len(lineage(framework, entry_id)) == 2 + MAX_PENDING_RIDERS


class TestFailureContract:
    def test_failed_carrier_round_requeues_its_riders(self):
        framework, source, reader = deployment()
        entry_id = source.submit(b"payload", dict(META)).entry_id
        reader.retrieve(entry_id)
        network = framework.channel.orderer.cluster.network
        network.fault_injector = lambda message: FaultAction(drop=True)
        with pytest.raises(ReproError):
            source.submit(b"lost round", dict(META))
        assert framework.riders.pending() == 1  # back in the queue
        network.fault_injector = None
        assert source.submit(b"healed", dict(META)).ok
        framework.riders.drain()
        chain = lineage(framework, entry_id)
        assert [e["action"] for e in chain].count("accessed") == 1
        assert reader.verify_provenance(entry_id)["length"] == len(chain)
        assert counter("provenance_write_failures_total") == 0

    def test_rider_refused_every_attempt_is_counted(self):
        """A carrier that appends to the same entry commits first in the
        block, so the queued access event hits an MVCC conflict each round;
        after ``max_attempts`` refusals it is counted lost, not dropped."""
        framework, source, reader = deployment(consensus="solo")
        entry_id = source.submit(b"payload", dict(META)).entry_id
        reader.retrieve(entry_id)
        attempts = framework.resilience.retry_policy.max_attempts
        for i in range(attempts):
            assert framework.riders.pending() == 1
            flagged = {"entry_id": entry_id, "action": "flagged", "actor": "admin"}
            framework.channel.invoke(
                framework.admin, "provenance", "record_many", [json.dumps([flagged])]
            )
        assert framework.riders.pending() == 0
        assert counter("provenance_write_failures_total") == 1
        actions = [e["action"] for e in lineage(framework, entry_id)]
        assert "accessed" not in actions and actions.count("flagged") == attempts

    def test_refused_score_write_is_counted(self):
        framework, _, _ = deployment(consensus="solo")
        framework.riders.put(framework.admin, "put_score", ["cam-1", "not json"])
        for _ in range(framework.resilience.retry_policy.max_attempts):
            framework.channel.flush()
        assert framework.riders.pending() == 0
        assert counter("trust_write_failures_total") == 1

    def test_score_snapshots_are_never_coalesced(self):
        framework, _, _ = deployment(consensus="solo")
        framework.trust.register_source("cam-x", SourceTier.UNTRUSTED)
        for accepted in (True, False, True):
            framework.trust.record_validation("cam-x", accepted, 1, 0)
            framework.record_trust_on_chain("cam-x")
        framework.riders.drain()
        history = json.loads(framework.channel.query(
            framework.admin, "trust_score", "score_history", ["cam-x"]
        ))
        assert len(history) == 3
        assert history[-1]["score"] == framework.trust.chain_record("cam-x")["score"]
