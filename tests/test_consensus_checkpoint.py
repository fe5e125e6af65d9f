"""Tests for PBFT checkpointing and protocol-state garbage collection."""

import pytest

from repro.consensus import Behaviour, BftCluster
from repro.net import ConstantLatency, FaultAction, SimNetwork
from repro.net.simnet import NO_FAULT

from tests import threat_table


def make_cluster(interval=10, n=4, behaviours=None):
    return threat_table.make_cluster(
        n, behaviours=behaviours, checkpoint_interval=interval, view_timeout=0.5
    )


class TestCheckpointing:
    def test_stable_checkpoint_advances(self):
        cluster = make_cluster(interval=10)
        for i in range(25):
            cluster.submit(i)
        cluster.run()
        for replica in cluster.replicas.values():
            assert replica.stable_checkpoint == 19

    def test_slots_garbage_collected(self):
        cluster = make_cluster(interval=5)
        for i in range(12):
            cluster.submit(i)
        cluster.run()
        for replica in cluster.replicas.values():
            # Slots up to the stable checkpoint (seq 9) are gone.
            assert all(seq > 9 for _, seq in replica._slots)
            # The decided log itself is intact.
            assert len(replica.log) == 12

    def test_no_checkpoint_below_interval(self):
        cluster = make_cluster(interval=10)
        for i in range(5):
            cluster.submit(i)
        cluster.run()
        for replica in cluster.replicas.values():
            assert replica.stable_checkpoint == -1
            assert not replica._checkpoint_votes  # no checkpoint was taken

    def test_disabled_by_default(self):
        cluster = BftCluster(
            n_replicas=4, network=SimNetwork(latency=ConstantLatency(base=0.001))
        )
        for i in range(15):
            cluster.submit(i)
        cluster.run()
        for replica in cluster.replicas.values():
            assert replica.stable_checkpoint == -1

    def test_checkpointing_tolerates_byzantine_replica(self):
        cluster = make_cluster(
            interval=5, behaviours={"validator-3": Behaviour.SILENT}
        )
        for i in range(12):
            cluster.submit(i)
        cluster.run()
        honest = [
            r for r in cluster.replicas.values() if r.adversary is None
        ]
        # 3 honest replicas still form the 2f+1 checkpoint quorum.
        assert all(r.stable_checkpoint >= 4 for r in honest)

    def test_log_agreement_preserved_across_gc(self):
        cluster = make_cluster(interval=4)
        requests = [cluster.submit(i) for i in range(10)]
        cluster.run()
        for request in requests:
            assert cluster.agreement_reached(request.request_id)

    def test_work_continues_after_checkpoint(self):
        cluster = make_cluster(interval=5)
        for i in range(7):
            cluster.submit(i)
        cluster.run()
        late = cluster.submit("late")
        cluster.run()
        assert cluster.agreement_reached(late.request_id)


class TestDecidedStateIsFreed:
    """With checkpoints off (the default without durability) nothing is ever
    garbage-collected, so a decided instance must not leave its protocol
    state behind: the log entry is what a replica keeps."""

    @pytest.mark.parametrize(
        "behaviours", [None, {"validator-3": Behaviour.SILENT}], ids=["all-normal", "silent"]
    )
    def test_decisions_leave_no_slots_or_timers(self, behaviours):
        cluster = make_cluster(interval=0, behaviours=behaviours)
        for i in range(2000):
            cluster.submit(i)
            cluster.run()
        for replica in cluster.replicas.values():
            assert len(replica.log) == 2000
            assert replica._slots == {}
            assert replica._pending_timeouts == {}
            assert replica.stable_checkpoint == -1

    def test_straggler_commit_after_free_lands_in_vote_record(self):
        cluster = make_cluster(interval=0)
        late = "validator-2"
        cluster.network.fault_injector = lambda msg: (
            FaultAction(extra_delay_s=0.1)
            if msg.kind == "Commit" and msg.src == late
            else NO_FAULT
        )
        cluster.submit("x")
        cluster.run(until=0.05)  # decided everywhere; the late commits in flight
        others = [r for r in cluster.replicas.values() if r.name != late]
        for replica in others:
            (decision,) = replica.log
            assert late not in decision.votes
            assert replica._slots == {}
        cluster.run()
        for replica in cluster.replicas.values():
            (decision,) = replica.log
            assert set(decision.votes) == set(cluster.replica_names)
            assert decision.item_votes[late] == (True,)
            assert replica._slots == {}  # the late message made no new state
