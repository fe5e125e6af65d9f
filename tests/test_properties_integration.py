"""Property-based tests of system-level invariants (hypothesis).

These drive randomized workloads through the real stack and assert the
invariants everything else depends on: MVCC serializability, cross-peer
state agreement, end-to-end payload integrity, and BFT safety under any
admissible fault assignment.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus import Behaviour
from repro.consensus.bft import ADVERSARIES
from repro.fabric.snapshot import state_digest

from tests.fabric_helpers import make_network
from tests.threat_table import equivocate_requests, make_cluster

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMVCCSerializability:
    @relaxed
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["k0", "k1", "k2"]),  # contended keys
                st.integers(min_value=1, max_value=4),  # batch position spread
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_counter_equals_valid_increments(self, schedule):
        """Whatever the batching and conflicts, each counter's final value
        equals the number of increments that committed VALID on it."""
        net, channel, alice = make_network(max_batch_size=3)
        tx_keys = []
        for key, _spread in schedule:
            tx_keys.append((channel.invoke_async(alice, "kv", "increment", [key]), key))
        channel.flush()
        valid_per_key: dict[str, int] = {}
        for tx_id, key in tx_keys:
            if channel.result(tx_id).ok:
                valid_per_key[key] = valid_per_key.get(key, 0) + 1
        for key, expected in valid_per_key.items():
            out = json.loads(channel.query(alice, "kv", "get", [key]))
            assert int(out["value"]) == expected

    @relaxed
    @given(st.integers(min_value=2, max_value=6))
    def test_conflicting_batch_exactly_one_winner(self, batch):
        """All increments of one key in one block: exactly one commits."""
        net, channel, alice = make_network(max_batch_size=batch)
        txs = [channel.invoke_async(alice, "kv", "increment", ["hot"]) for _ in range(batch)]
        channel.flush()
        winners = sum(1 for t in txs if channel.result(t).ok)
        assert winners == 1


class TestPeerAgreement:
    @relaxed
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "increment"]),
                st.sampled_from(["a", "b", "c", "d"]),
                st.text(alphabet="xyz", min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_all_peers_converge_identically(self, ops):
        """Any op sequence leaves every peer with byte-identical state and
        the same chain head."""
        net, channel, alice = make_network(peers_per_org=2)
        for op, key, value in ops:
            try:
                if op == "put":
                    channel.invoke(alice, "kv", "put", [key, value])
                elif op == "delete":
                    channel.invoke(alice, "kv", "delete", [key])
                else:
                    channel.invoke(alice, "kv", "increment", [key])
            except Exception:
                continue  # application-level failures are fine; state must still agree
        peers = list(channel.peers.values())
        digests = {state_digest(p.world) for p in peers}
        heads = {p.ledger.last_hash() for p in peers}
        assert len(digests) == 1
        assert len(heads) == 1
        for peer in peers:
            peer.ledger.verify_chain()


class TestEndToEndIntegrity:
    @relaxed
    @given(st.binary(min_size=0, max_size=50_000))
    def test_submit_retrieve_roundtrip(self, payload):
        """Any payload survives the full store+retrieve path verified."""
        from repro.core import Client, Framework, FrameworkConfig
        from repro.trust import SourceTier

        framework = Framework(FrameworkConfig(consensus="solo", chunk_size=4096))
        client = Client(
            framework, framework.register_source("prop-cam", tier=SourceTier.TRUSTED)
        )
        receipt = client.submit(payload, {"timestamp": 1.0, "detections": []})
        result = client.retrieve(receipt.entry_id)
        assert result.data == payload
        assert result.verified


def last_backups(faults):
    """The faults on validator-6, validator-5, ... of n=7."""
    return {f"validator-{6 - i}": behaviour for i, behaviour in enumerate(faults)}


class TestBftSafetyProperty:
    @relaxed
    @given(
        st.lists(
            st.sampled_from(
                [
                    Behaviour.SILENT,
                    Behaviour.WRONG_DIGEST,
                    Behaviour.ALWAYS_VALID,
                    Behaviour.ALWAYS_INVALID,
                ]
            ),
            min_size=0,
            max_size=2,  # n=7 tolerates f=2
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_agreement_under_any_admissible_faults(self, faults, n_requests):
        """With at most f arbitrary (non-primary-equivocating) faults in
        n=7, every request reaches identical agreement on honest replicas."""
        cluster = make_cluster(7, behaviours=last_backups(faults), view_timeout=0.5)
        requests = [cluster.submit({"n": i}) for i in range(n_requests)]
        cluster.run(until=30.0)
        for request in requests:
            assert cluster.agreement_reached(request.request_id)

    @relaxed
    @given(
        st.sampled_from([ADVERSARIES[Behaviour.EQUIVOCATE], equivocate_requests]),
        st.lists(st.sampled_from(list(Behaviour)), max_size=1),  # f - 1 = 1 more
        st.integers(min_value=1, max_value=4),
    )
    def test_an_equivocating_primary_splits_no_two_honest_replicas(
        self, equivocator, faults, n_requests
    ):
        """validator-0 equivocates, on the digest or on the request, and up
        to f - 1 other replicas of n=7 run any fault in the table: no two
        honest replicas decide one seq differently."""
        cluster = make_cluster(7, behaviours=last_backups(faults), view_timeout=0.5)
        cluster.replicas["validator-0"].adversary = equivocator
        for i in range(n_requests):
            cluster.submit({"n": i})
        cluster.run(until=30.0)
        assert cluster.log_prefix_consistent()
        assert cluster.decided_log()
