"""Tests for PBFT consensus: agreement, validity voting, Byzantine faults."""

import pytest

from repro.consensus import Behaviour, BftCluster
from repro.errors import ConsensusError
from repro.net import ConstantLatency, SimNetwork


def make_cluster(n=4, validator=None, behaviours=None, **kwargs):
    net = SimNetwork(latency=ConstantLatency(base=0.001))
    return BftCluster(
        n_replicas=n, network=net, validator=validator, behaviours=behaviours, **kwargs
    )


class TestHappyPath:
    def test_single_request_commits_everywhere(self):
        cluster = make_cluster()
        req = cluster.submit({"op": "put", "key": "a"})
        cluster.run()
        log = cluster.decided_log()
        assert len(log) == 1
        assert log[0].request.request_id == req.request_id
        assert log[0].accepted
        assert cluster.agreement_reached(req.request_id)

    def test_all_honest_replicas_have_identical_logs(self):
        cluster = make_cluster()
        for i in range(5):
            cluster.submit({"n": i})
        cluster.run()
        logs = [
            [(d.seq, d.request.request_id, d.accepted) for d in sorted(r.log, key=lambda d: d.seq)]
            for r in cluster.replicas.values()
        ]
        assert all(log == logs[0] for log in logs)
        assert len(logs[0]) == 5

    def test_sequence_numbers_are_consecutive(self):
        cluster = make_cluster()
        for i in range(10):
            cluster.submit(i)
        cluster.run()
        assert [d.seq for d in cluster.decided_log()] == list(range(10))

    def test_larger_cluster(self):
        cluster = make_cluster(n=7)
        req = cluster.submit("payload")
        cluster.run()
        assert cluster.agreement_reached(req.request_id)

    def test_too_small_cluster_rejected(self):
        with pytest.raises(ConsensusError):
            make_cluster(n=3)

    def test_accepted_records_vote_counts(self):
        cluster = make_cluster()
        cluster.submit("x")
        cluster.run()
        decision = cluster.decided_log()[0]
        assert decision.valid_votes >= 3
        assert decision.invalid_votes == 0


class TestValidationVoting:
    def test_invalid_transaction_rejected_but_ordered(self):
        cluster = make_cluster(validator=lambda name, req: req.payload != "bad")
        good = cluster.submit("good")
        bad = cluster.submit("bad")
        cluster.run()
        log = {d.request.request_id: d for d in cluster.decided_log()}
        assert log[good.request_id].accepted
        assert not log[bad.request_id].accepted
        # Rejection is still an agreement: all replicas decided it.
        assert cluster.agreement_reached(bad.request_id)

    def test_validator_sees_replica_name(self):
        seen = set()

        def validator(name, req):
            seen.add(name)
            return True

        cluster = make_cluster(validator=validator)
        cluster.submit("x")
        cluster.run()
        assert len(seen) == 4  # every replica validated independently


class TestByzantineFaults:
    def test_one_silent_replica_tolerated(self):
        cluster = make_cluster(behaviours={"validator-3": Behaviour.SILENT})
        req = cluster.submit("payload")
        cluster.run()
        assert cluster.agreement_reached(req.request_id)

    def test_one_crashed_replica_tolerated(self):
        cluster = make_cluster(behaviours={"validator-2": Behaviour.CRASHED})
        req = cluster.submit("payload")
        cluster.run()
        assert cluster.agreement_reached(req.request_id)

    def test_one_wrong_digest_replica_tolerated(self):
        cluster = make_cluster(behaviours={"validator-1": Behaviour.WRONG_DIGEST})
        req = cluster.submit("payload")
        cluster.run()
        assert cluster.agreement_reached(req.request_id)

    def test_one_endorser_of_invalid_data_outvoted(self):
        """A corrupt validator endorsing bad data cannot flip the verdict."""
        cluster = make_cluster(
            validator=lambda name, req: req.payload != "bad",
            behaviours={"validator-0": Behaviour.ALWAYS_VALID},
        )
        bad = cluster.submit("bad")
        cluster.run()
        log = {d.request.request_id: d for d in cluster.decided_log()}
        assert not log[bad.request_id].accepted

    def test_one_rejector_of_valid_data_outvoted(self):
        cluster = make_cluster(behaviours={"validator-2": Behaviour.ALWAYS_INVALID})
        req = cluster.submit("fine")
        cluster.run()
        log = {d.request.request_id: d for d in cluster.decided_log()}
        assert log[req.request_id].accepted

    def test_two_byzantine_of_four_break_liveness(self):
        """Beyond f=1 faults in n=4, requests cannot commit."""
        cluster = make_cluster(
            behaviours={
                "validator-2": Behaviour.SILENT,
                "validator-3": Behaviour.SILENT,
            },
            view_timeout=0.5,
        )
        req = cluster.submit("stuck")
        cluster.run(until=3.0)
        assert not cluster.agreement_reached(req.request_id)

    def test_f_of_seven_byzantine_tolerated(self):
        # n=7 -> f=2: two simultaneous faults of different kinds.
        cluster = make_cluster(
            n=7,
            behaviours={
                "validator-5": Behaviour.WRONG_DIGEST,
                "validator-6": Behaviour.ALWAYS_INVALID,
            },
        )
        req = cluster.submit("robust")
        cluster.run()
        log = {d.request.request_id: d for d in cluster.decided_log()}
        assert log[req.request_id].accepted


class TestViewChange:
    def test_crashed_primary_triggers_view_change(self):
        cluster = make_cluster(
            behaviours={"validator-0": Behaviour.CRASHED}, view_timeout=0.5
        )
        req = cluster.submit("survives primary crash")
        cluster.run(until=10.0)
        honest = [r for r in cluster.replicas.values() if r.behaviour is Behaviour.NORMAL]
        assert all(r.view >= 1 for r in honest)
        assert cluster.agreement_reached(req.request_id)

    def test_silent_primary_request_eventually_commits(self):
        cluster = make_cluster(
            behaviours={"validator-0": Behaviour.SILENT}, view_timeout=0.5
        )
        req = cluster.submit("needs new primary")
        cluster.run(until=10.0)
        assert cluster.agreement_reached(req.request_id)

    def test_equivocating_primary_does_not_split_honest_replicas(self):
        cluster = make_cluster(
            behaviours={"validator-0": Behaviour.EQUIVOCATE}, view_timeout=0.5
        )
        req = cluster.submit("no fork")
        cluster.run(until=10.0)
        # Either the request commits identically everywhere or nowhere;
        # honest replicas must never decide different values.
        decisions = {}
        for r in cluster.replicas.values():
            if r.behaviour is not Behaviour.NORMAL:
                continue
            for d in r.log:
                if d.request.request_id == req.request_id:
                    decisions.setdefault(r.name, (d.seq, d.accepted))
        assert len(set(decisions.values())) <= 1


class TestDecisionCallback:
    def test_on_decision_called_per_replica(self):
        events = []
        cluster = make_cluster(on_decision=lambda name, d: events.append(name))
        cluster.submit("observed")
        cluster.run()
        assert len(events) == 4


class TestViewChangeSafety:
    """Cross-view agreement: no seq may ever decide two different requests."""

    def test_prepared_replica_refuses_conflicting_reproposal(self):
        from repro.consensus.bft import _digest
        from repro.consensus.messages import ClientRequest, PrePrepare

        cluster = make_cluster()
        req = cluster.submit("first")
        cluster.run()
        replica = cluster.replicas["validator-1"]
        assert replica._prepared_digest[0] == _digest(req)
        # A later view's primary tries to order a *different* request at a
        # seq this replica already prepared: it must not participate.
        replica.view = 1
        rogue = ClientRequest(request_id="rogue", payload="other")
        replica._dispatch(PrePrepare(1, 0, _digest(rogue), rogue))
        assert (1, 0) not in replica._slots
        assert [d.request.request_id for d in replica.log] == [req.request_id]

    def test_reproposal_of_same_request_still_accepted(self):
        from repro.consensus.bft import _digest
        from repro.consensus.messages import PrePrepare

        cluster = make_cluster()
        req = cluster.submit("first")
        cluster.run()
        replica = cluster.replicas["validator-1"]
        replica.view = 1
        replica._dispatch(PrePrepare(1, 0, _digest(req), req))
        assert (1, 0) in replica._slots  # same digest: participation allowed

    def test_remembered_digest_does_not_vouch_for_another_request_object(self):
        """The digest is remembered per request *object*. A pre-prepare that
        carries a different object under the same request id, with an altered
        payload and the original's digest, is digested afresh and refused."""
        import dataclasses

        from repro.consensus.bft import _digest
        from repro.consensus.messages import ClientRequest, PrePrepare

        cluster = make_cluster()
        payload = {"tx_ids": ("tx-a", "tx-b"), "batch_digest": "d0"}
        honest = ClientRequest(request_id="batch-0", payload=payload, n_items=2)
        digest = _digest(honest)
        assert _digest(honest) == digest  # remembered
        forged = [
            ClientRequest(
                request_id="batch-0",
                payload={"tx_ids": ("tx-a", "tx-evil"), "batch_digest": "d0"},
                n_items=2,
            ),
            dataclasses.replace(honest, payload={**payload, "batch_digest": "d1"}),
        ]
        replica = cluster.replicas["validator-1"]
        for request in forged:
            replica._dispatch(PrePrepare(0, 0, digest, request))
            assert replica._slot(0, 0).pre_prepare is None
            assert not replica._slot(0, 0).sent_prepare
        replica._dispatch(PrePrepare(0, 0, digest, honest))
        assert replica._slot(0, 0).pre_prepare.request is honest
        assert replica._slot(0, 0).sent_prepare

    def test_view_change_votes_carry_prepared_frontier(self):
        cluster = make_cluster()
        for i in range(3):
            cluster.submit(f"r{i}")
        cluster.run()
        for replica in cluster.replicas.values():
            assert replica._max_prepared_seq() == 2

    def test_new_primary_proposes_past_decided_slots(self):
        cluster = make_cluster(view_timeout=0.5)
        for i in range(2):
            cluster.submit(f"pre-{i}")
        cluster.run()
        # Primary dies; the re-proposed request must land on a fresh seq
        # (>= 2), never colliding with a slot the old view decided.
        cluster.network.set_node_up("validator-0", False)
        req = cluster.submit("after crash")
        cluster.run(until=30.0)
        decided = [
            d
            for name, r in cluster.replicas.items()
            if name != "validator-0"
            for d in r.log
            if d.request.request_id == req.request_id
        ]
        assert decided
        assert all(d.seq >= 2 for d in decided)
        assert cluster.log_prefix_consistent()


class TestViewSynchronisation:
    """A replica left in an old view follows f+1 peers that moved on; fewer
    than f+1 move nobody."""

    def test_two_two_view_split_reunites_on_a_clean_network(self):
        """Views 32/32/31/31: each side's primary proposes, its one follower
        prepares, nobody reaches 2f+1 — and a primary arms no timeout, so
        each side only ever holds one view-change vote. Without view
        synchronisation this never decides anything."""
        cluster = make_cluster(view_timeout=0.5)
        for name, view in zip(cluster.replica_names, (32, 32, 31, 31)):
            cluster.replicas[name].view = view
        req = cluster.submit("after the split")
        cluster.run()
        assert cluster.agreement_reached(req.request_id)
        assert len({r.view for r in cluster.replicas.values()}) == 1
        assert cluster.log_prefix_consistent()

    def _claim(self, cluster, liars, view):
        from repro.consensus.messages import Prepare

        for liar in liars:
            cluster.replicas[liar].broadcast(
                Prepare(view, 0, "no-such-digest", liar, True), kind="Prepare"
            )
        cluster.run()

    def test_one_liar_moves_nobody_f_plus_one_do(self):
        cluster = make_cluster()
        honest = [cluster.replicas[n] for n in ("validator-0", "validator-1")]
        self._claim(cluster, ["validator-3"], 10**6)
        assert [r.view for r in honest] == [0, 0]
        self._claim(cluster, ["validator-2"], 10**6 + 7)
        # f+1 = 2 peers are ahead now: follow to the view both have reached.
        assert [r.view for r in honest] == [10**6, 10**6]
        req = cluster.submit("still live")
        cluster.run()
        assert all(
            any(d.request.request_id == req.request_id for d in r.log) for r in honest
        )

    def test_peer_views_hold_replica_names_only(self):
        from repro.consensus.messages import Commit, Prepare

        cluster = make_cluster()
        replica = cluster.replicas["validator-1"]
        for i in range(50):
            replica._dispatch(Prepare(9, i, "d", f"stranger-{i}", True))
            replica._dispatch(Commit(9 + i, i, "d", f"validator-{i % 4}", True))
        # No stranger was remembered, so _peer_views cannot outgrow n, and the
        # three real peers ended on 57 / 55 / 56: f+1 of them reached 56.
        assert replica._peer_views == {"validator-0": 57, "validator-2": 55, "validator-3": 56}
        assert replica.view == 56


class TestLogHashChain:
    """The decided log's seq-ordered hash chain behind ``log_frontier``."""

    @staticmethod
    def _decision(seq, accepted=True, request_id=None):
        from repro.consensus.bft import Decision
        from repro.consensus.messages import ClientRequest

        return Decision(
            seq=seq,
            view=0,
            request=ClientRequest(request_id=request_id or f"req-{seq}", payload=seq),
            accepted=accepted,
            valid_votes=3,
            invalid_votes=0,
        )

    def _replica_fed(self, seqs, rejected=()):
        replica = make_cluster().replicas["validator-1"]
        for seq in seqs:
            replica._chain_decision(self._decision(seq, seq not in rejected))
        return replica

    def test_out_of_order_delivery_builds_the_in_order_chain(self):
        import itertools

        in_order = self._replica_fed(range(5))
        frontiers = [in_order.log_frontier(seq) for seq in range(-1, 6)]
        assert len({digest for _, digest in frontiers}) == 6  # -1, 0..4; 5 == 4
        for order in itertools.permutations(range(5)):
            shuffled = self._replica_fed(order)
            assert shuffled._seqs == [0, 1, 2, 3, 4]
            assert [shuffled.log_frontier(seq) for seq in range(-1, 6)] == frontiers
            assert shuffled.log_frontier() == in_order.log_frontier()

    def test_equal_prefixes_agree_and_a_gap_differs(self):
        full = self._replica_fed(range(6))
        gapped = self._replica_fed([0, 1, 3, 4, 5])
        for seq in (-1, 0, 1):
            assert gapped.log_frontier(seq) == full.log_frontier(seq)
        for seq in (2, 3, 4, 5):
            assert gapped.log_frontier(seq)[1] != full.log_frontier(seq)[1]
        gapped._chain_decision(self._decision(2))  # the straggler arrives
        assert gapped.log_frontier() == full.log_frontier() == (5, full._links[-32:].hex())

    def test_digest_commits_to_request_and_verdict(self):
        base = self._replica_fed(range(3))
        other_verdict = self._replica_fed(range(3), rejected={1})
        assert other_verdict.log_frontier(0) == base.log_frontier(0)
        assert other_verdict.log_frontier(1)[1] != base.log_frontier(1)[1]
        renamed = self._replica_fed(range(2))
        renamed._chain_decision(self._decision(2, request_id="someone-else"))
        assert renamed.log_frontier(1) == base.log_frontier(1)
        assert renamed.log_frontier(2)[1] != base.log_frontier(2)[1]

    def test_live_replicas_agree_on_every_frontier(self):
        cluster = make_cluster()
        for i in range(6):
            cluster.submit(f"r{i}")
        cluster.run()
        replicas = list(cluster.replicas.values())
        for seq in range(-1, 6):
            assert len({r.log_frontier(seq) for r in replicas}) == 1
        assert {r.log_frontier() for r in replicas} == {replicas[0].log_frontier(5)}
        assert replicas[0]._seqs == sorted(d.seq for d in replicas[0].log)

    def test_empty_log_frontier(self):
        replica = make_cluster().replicas["validator-2"]
        seq, digest = replica.log_frontier()
        assert seq == -1 and digest == replica.log_frontier(10)[1]
