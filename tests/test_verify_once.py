"""Each signature is checked once per process: its verdict is a remembered
form of the frozen transaction, shared by the endorsing peers, the PBFT
validators and the committing peers. Membership is not remembered."""

from dataclasses import replace

import pytest

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.errors import IdentityError, SignatureError
from repro.fabric import ValidationCode
from repro.obs.prof import profiling
from repro.trust import SourceTier
from repro.workloads.traffic import IngestItem

from tests.fabric_helpers import make_network


def _calls(profiler, center):
    return sum(s.calls for s in profiler.center_stats() if s.center == center)


def _verified_tx(channel, client):
    """An assembled transaction whose verdicts are already remembered valid."""
    proposal, responses = channel.endorse(client, "kv", "put", ["k", "v"])
    tx = channel.assemble(proposal, responses)
    assert tx.proposal.signature_error() is None
    assert all(tx.endorsement_verdicts())
    return tx


def _order(channel, tx):
    channel.orderer.submit(tx)
    channel.flush()
    return channel.result(tx.tx_id).code


class TestOneCheckPerSignature:
    def test_submit_verifies_as_often_as_it_signs(self):
        framework = Framework(FrameworkConfig())
        client = Client(framework, framework.register_source("cam", tier=SourceTier.TRUSTED))
        for i in range(3):
            with profiling() as profiler:
                client.submit(
                    b"frame %d " % i * 64,
                    {"timestamp": float(i), "camera_id": "cam", "detections": []},
                )
            signs = _calls(profiler, "crypto.sign")
            assert signs > 0
            assert _calls(profiler, "crypto.verify") == signs

    def test_batch_ingest_verifies_as_often_as_it_signs(self):
        framework = Framework(FrameworkConfig(max_batch_size=64))
        ingestor = BatchIngestor(framework)
        ingestor.register(framework.register_source("cam", tier=SourceTier.TRUSTED))
        items = [
            IngestItem(
                source_id="cam",
                payload=b"frame %d " % i * 64,
                metadata={"timestamp": float(i), "detections": []},
                observation=None,
            )
            for i in range(64)
        ]
        with profiling() as profiler:
            report = ingestor.ingest(items)
        assert report.committed == 64
        signs = _calls(profiler, "crypto.sign")
        assert signs > 0
        assert _calls(profiler, "crypto.verify") == signs


class TestMembershipIsAskedEveryTime:
    def test_revoked_endorser_stops_counting(self):
        net, channel, client = make_network("solo", orgs=("org1",))
        tx = _verified_tx(channel, client)
        (endorsement,) = tx.endorsements
        channel.msp_registry.msp("org1").revoke(endorsement.endorser.name)
        assert _order(channel, tx) is ValidationCode.ENDORSEMENT_POLICY_FAILURE

    def test_revoked_creator_is_refused(self):
        net, channel, client = make_network("bft")
        tx = _verified_tx(channel, client)
        channel.msp_registry.msp("org1").revoke(client.name)
        assert _order(channel, tx) is ValidationCode.BAD_IDENTITY

    def test_revoked_creator_cannot_endorse_a_verified_proposal(self):
        net, channel, client = make_network("solo")
        proposal, _ = channel.endorse(client, "kv", "put", ["k", "v"])
        channel.msp_registry.msp("org1").revoke(client.name)
        peer = next(iter(channel.peers.values()))
        with pytest.raises(IdentityError, match="revoked"):
            peer.endorse(proposal)


class TestACopyIsCheckedAfresh:
    @pytest.mark.parametrize("consensus", ["solo", "bft"])
    def test_tampered_response_is_refused(self, consensus):
        net, channel, client = make_network(consensus)
        tx = _verified_tx(channel, client)
        tampered = replace(tx, response='{"key":"forged"}')
        assert not any(tampered.endorsement_verdicts())
        expected = (
            ValidationCode.REJECTED_BY_CONSENSUS
            if consensus == "bft"
            else ValidationCode.ENDORSEMENT_POLICY_FAILURE
        )
        assert _order(channel, tampered) is expected

    def test_tampered_proposal_is_refused(self):
        net, channel, client = make_network("solo")
        tx = _verified_tx(channel, client)
        forged = replace(tx.proposal, args=("k", "evil"))
        assert _order(channel, replace(tx, proposal=forged)) is ValidationCode.BAD_SIGNATURE

    def test_bad_creator_signature_keeps_its_error_on_every_peer(self):
        net, channel, client = make_network("solo")
        proposal, _ = channel.endorse(client, "kv", "put", ["k", "v"])
        bad = replace(proposal, signature=bytes(64))
        for peer in channel.peers.values():  # the second peer is served the verdict
            with pytest.raises(SignatureError, match=r"bad signature from 'alice'@'org1': "):
                peer.endorse(bad)
