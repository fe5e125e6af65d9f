"""The threat model, one row per attack.

A row names the adversary, where it acts, the attack, the refusal or
detection that defends against it, and, while that defence is missing, the
ROADMAP item that owns it. Consensus adversaries are send-side transforms
(``BftReplica.adversary``); the others are test-side edits of what a peer,
a store or a client holds.

A row's ``check`` runs the attack and asserts the defence. An open row's
check fails today, so ``tests/test_threat_table.py`` runs it as a strict
xfail naming its item: the change that lands the item flips it to a pass,
and the stale marker fails until it is removed. A row whose defence is
already proven by a tier-1 test beside its subsystem's fixtures names that
test (``proof``) instead of repeating it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.consensus import Behaviour, BftCluster, ClientRequest, NewView, Prepare, PrePrepare
from repro.consensus.bft import _digest
from repro.core import Client, Framework, FrameworkConfig
from repro.errors import AccessDeniedError, MerkleProofError, RecoveryError, SignatureError
from repro.index import PeerIndex
from repro.net import ConstantLatency, SimNetwork
from repro.obs.explorer import LedgerExplorer
from repro.storage import CORRUPT, DurabilityManager
from repro.trust import SourceTier
from repro.util.serialization import canonical_json

from tests.fabric_helpers import doctor_older_block, make_network


@dataclass(frozen=True)
class Threat:
    adversary: str
    acts_at: str
    attack: str
    defence: str
    item: int | None = None  # the ROADMAP item that owns an open row
    check: Callable[[], None] | None = None
    proof: str | None = None  # the tier-1 test that proves a defended row


META = {"timestamp": 1.0, "detections": []}


def make_cluster(n=4, validator=None, behaviours=None, **kwargs):
    net = SimNetwork(latency=ConstantLatency(base=0.001))
    cluster = BftCluster(n_replicas=n, network=net, validator=validator, **kwargs)
    for name, behaviour in (behaviours or {}).items():
        cluster.corrupt(name, behaviour)
    return cluster


def equivocate_requests(replica, payload, target):
    """A primary that pre-prepares another request, under its own true
    digest, to the odd-index replicas: an equivocation that passes every
    replica's digest check, unlike ``Behaviour.EQUIVOCATE``'s."""
    if type(payload) is PrePrepare and target != replica.name:
        if replica.cluster.replica_names.index(target) % 2:
            request = payload.request
            other = ClientRequest(request.request_id + "'", request.payload, request.n_items)
            return PrePrepare(payload.view, payload.seq, _digest(other), other)
    return payload


# -- consensus: defended ------------------------------------------------------


def equivocating_primary():
    cluster = make_cluster(
        behaviours={"validator-0": Behaviour.EQUIVOCATE}, view_timeout=0.5
    )
    req = cluster.submit("no fork")
    cluster.run(until=10.0)
    # Either the request commits identically everywhere or nowhere;
    # honest replicas must never decide different values.
    decisions = {}
    for r in cluster.replicas.values():
        if r.adversary is not None:
            continue
        for d in r.log:
            if d.request.request_id == req.request_id:
                decisions.setdefault(r.name, (d.seq, d.accepted))
    assert len(set(decisions.values())) <= 1


def primary_proposing_two_requests():
    cluster = make_cluster(view_timeout=0.5)
    cluster.replicas["validator-0"].adversary = equivocate_requests
    req = cluster.submit("one of two")
    cluster.run(until=10.0)
    assert cluster.log_prefix_consistent()
    assert cluster.agreement_reached(req.request_id)


def wrong_digest_voter():
    cluster = make_cluster(behaviours={"validator-1": Behaviour.WRONG_DIGEST})
    req = cluster.submit("payload")
    cluster.run()
    assert cluster.agreement_reached(req.request_id)


# -- open ---------------------------------------------------------------------


def forged_creator_signature():
    """Anyone can sign as anyone: the verifier tag is computed from the
    public key, which is on the chain."""
    net, channel, alice = make_network()
    honest = channel.endorse(alice, "kv", "put", ["k", "v"])[0]
    proposal = dataclasses.replace(honest, tx_id="forged", args=("k", "mallory"))
    mac = bytes(32)  # any 32 bytes: the verifier cannot check them
    public = proposal.creator.public_key.key_bytes
    tag = hashlib.sha256(public + mac + proposal.signing_payload()).digest()
    forged = dataclasses.replace(proposal, signature=mac + tag)
    for peer in channel.peers.values():
        with pytest.raises(SignatureError):
            peer.endorse(forged)


def forged_new_view():
    """One backup turns its prepares into a NewView for a far view."""

    def forge(replica, payload, target):
        if type(payload) is Prepare:
            return NewView(new_view=10**6, primary=replica.name)
        return payload

    cluster = make_cluster(view_timeout=0.5)
    cluster.replicas["validator-3"].adversary = forge
    req = cluster.submit("not derailed")
    cluster.run(until=30.0)
    assert all(r.view < 10**6 for r in cluster.replicas.values() if r.adversary is None)
    assert cluster.agreement_reached(req.request_id)


def lone_donor_doctored_snapshot():
    """The only peer at head serves a state it rewrote; the recovering peer's
    WAL is damaged, so it falls back to state transfer."""
    net, channel, alice = make_network(peers_per_org=2)
    manager = DurabilityManager(channel, checkpoint_interval=8)
    for i in range(3):
        channel.invoke(alice, "kv", "put", [f"k{i}", str(i)])
    recovering, donor, *others = channel.peers.values()
    for peer in others:
        peer.online = False
    key = next(k for k in donor.world.keys() if k.endswith("k0"))
    version = donor.world.get_version(key)
    donor.world.apply_write(key, b"doctored", dataclasses.replace(version, tx=9), "evil", 0.0)
    manager.damage_wal(recovering.name, CORRUPT)
    with contextlib.suppress(RecoveryError):
        manager.crash_and_recover(recovering.name)
    assert recovering.world.get(key) != b"doctored"


def outsider_fetches_restricted_bytes():
    framework = Framework(FrameworkConfig(consensus="solo", orgs=("police", "city")))
    police = Client(
        framework, framework.register_source("police-cam", org="police", tier=SourceTier.TRUSTED)
    )
    city = Client(
        framework, framework.register_source("city-analyst", org="city", tier=SourceTier.TRUSTED)
    )
    receipt = police.submit(b"sensitive frame", dict(META))
    police.restrict(receipt.entry_id, ["police"])
    rows = []
    with contextlib.suppress(AccessDeniedError):
        rows = city.query(f"entry_id = '{receipt.entry_id}'", fetch_data=True)
    assert all(row.data != b"sensitive frame" for row in rows)


def doctored_block_on_another_peer():
    net, channel, alice = make_network("solo")
    for i in range(5):
        channel.invoke(alice, "kv", "put", [f"k{i}", str(i)])
    doctor_older_block(channel.peers["peer1.org2"].ledger)
    report = LedgerExplorer(channel).audit_chain(offchain=False)
    assert not report.ok


def lying_reference_peer():
    """The reference peer rewrites one record in its world state and rebuilds
    its index from it: its answer proves only that it agrees with itself."""
    framework = Framework(FrameworkConfig(consensus="solo", n_ipfs_nodes=2))
    client = Client(framework, framework.register_source("cam", tier=SourceTier.TRUSTED))
    for i in range(4):
        client.submit(f"payload-{i}".encode(), dict(META, timestamp=1.0 + i))
    peer = framework.channel.indexing.reference_peer()
    answer = client.engine.run_verified("source_id = 'cam'")
    record = dict(answer.records[0], camera_id="elsewhere")
    key = next(k for k in peer.world.keys() if k.endswith(record["entry_id"]))
    peer.world._values[key] = canonical_json(record)
    peer.index = PeerIndex.from_world(peer.world, peer.ledger.height)
    lie = client.engine.run_verified("source_id = 'cam'")
    if record in lie.records:  # served: the client's own check must refuse it
        with pytest.raises(MerkleProofError):
            lie.verify()


THREATS: dict[str, Threat] = {
    "equivocating-primary": Threat(
        "primary", "consensus: PrePrepare", "the reversed digest to odd-index replicas",
        "no two honest replicas decide the request differently",
        check=equivocating_primary,
    ),
    "two-request-primary": Threat(
        "primary", "consensus: PrePrepare", "another request, with its true digest, to odd-index replicas",
        "no seq decides two requests; the client's request decides after a view change",
        check=primary_proposing_two_requests,
    ),
    "wrong-digest-voter": Threat(
        "backup", "consensus: Prepare, Commit", "votes on the reversed digest",
        "outvoted: the request still reaches agreement", check=wrong_digest_voter,
    ),
    "lying-endorser": Threat(
        "validator", "consensus: Prepare, Commit", "votes valid on a bad request",
        "outvoted: the 2/3 verdict stands",
        proof="tests/test_consensus_bft.py::TestByzantineFaults::test_one_endorser_of_invalid_data_outvoted",
    ),
    "lying-rejector": Threat(
        "validator", "consensus: Prepare, Commit", "votes invalid on a good request",
        "outvoted: the 2/3 verdict stands",
        proof="tests/test_consensus_bft.py::TestByzantineFaults::test_one_rejector_of_valid_data_outvoted",
    ),
    "crashed-primary": Threat(
        "primary", "consensus: every send", "crashes",
        "a view change replaces it and the request decides",
        proof="tests/test_consensus_bft.py::TestViewChange::test_crashed_primary_triggers_view_change",
    ),
    "silent-primary": Threat(
        "primary", "consensus: every send", "stays silent",
        "a view change replaces it and the request decides",
        proof="tests/test_consensus_bft.py::TestViewChange::test_silent_primary_request_eventually_commits",
    ),
    "mixed-faults-at-f": Threat(
        "f validators of n = 7", "consensus: Prepare, Commit", "one wrong-digest, one lying voter",
        "the request is still accepted",
        proof="tests/test_consensus_bft.py::TestByzantineFaults::test_f_of_seven_byzantine_tolerated",
    ),
    "forged-endorsement": Threat(
        "client", "orderer: a transaction", "zeroed endorsement signatures",
        "the BFT validators vote it invalid: REJECTED_BY_CONSENSUS",
        proof="tests/test_fabric_channel.py::TestBftOrderedChannel::test_forged_endorsement_rejected_by_consensus",
    ),
    "doctored-header-verdict": Threat(
        "peer storage", "ledger: an older block's header", "drops a consensus rejection",
        "audit.check_chain names the block and the next one; verify_chain raises",
        proof="tests/test_fabric_audit.py::TestBlockChecks::test_doctored_verdicts_break_the_chain_at_the_next_block",
    ),
    "rotted-ipfs-block": Threat(
        "disk", "ipfs: a leaf or an interior block", "bytes rot in place",
        "the read hashes every block against its CID and raises",
        proof="tests/test_retrieve_read_path.py::TestEachByteHashedOnce::test_a_rotted_block_is_caught",
    ),
    "torn-wal-tail": Threat(
        "crash", "storage: the WAL's last frame", "half written",
        "replay drops the tail and catches up to parity",
        proof="tests/test_durability.py::TestWalReplay::test_torn_write_drops_the_tail_and_catches_up",
    ),
    "flipped-wal-verdict": Threat(
        "disk", "storage: a WAL block record", "rewritten without its consensus rejection",
        "recovery falls back to a verified state transfer, zero loss",
        proof="tests/test_durability.py::TestVerdictsInTheWal::test_a_flipped_verdict_goes_to_state_transfer_with_zero_loss",
    ),
    "forged-creator-signature": Threat(
        "anyone", "endorsing peers: a proposal", "signs as another identity from its public key",
        "the endorsers refuse the signature", item=1, check=forged_creator_signature,
    ),
    "forged-new-view": Threat(
        "backup", "consensus: NewView", "announces view 10**6 with no view-change quorum",
        "no honest replica moves; the request decides", item=3, check=forged_new_view,
    ),
    "byzantine-donor": Threat(
        "the one peer at head", "storage: state transfer", "serves a snapshot it rewrote",
        "the recovering peer refuses it or adopts the honest state", item=4,
        check=lone_donor_doctored_snapshot,
    ),
    "outsider-fetch": Threat(
        "another org's client", "query: fetch_data=True", "reads a restricted entry's bytes",
        "refused, or no bytes", item=12, check=outsider_fetches_restricted_bytes,
    ),
    "doctored-block-elsewhere": Threat(
        "peer storage", "ledger: an older block on a non-reference peer", "rewrites a transaction",
        "audit_chain reports it", item=24, check=doctored_block_on_another_peer,
    ),
    "lying-reference-peer": Threat(
        "the reference peer", "query: run_verified", "rewrites a record and rebuilds its index",
        "the answer fails verification", item=25, check=lying_reference_peer,
    ),
}
