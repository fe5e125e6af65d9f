"""Endorsement determinism: the same proposal, simulated twice against the
same world state, must produce byte-identical read/write sets — the property
the flow check of ``repro lint`` (FLOW5xx, which follows clock, rng, uuid,
environment, set-order and float-format values into state writes and the
chaincode response) and the divergence sanitizer (SAN301) both protect.
Exercised over the real application chaincodes (data / provenance / trust)."""

import json

import pytest

from repro.chaincodes import (
    DataUploadChaincode,
    ProvenanceChaincode,
    TrustScoreChaincode,
)
from repro.crypto.cid import CID
from repro.fabric import FabricNetwork, Role
from repro.util.serialization import canonical_json

PAYLOAD_CID = CID.for_data(b"frame-bytes").encode()

METADATA = json.dumps(
    {
        "source_id": "cam-7",
        "camera_id": "cam-7",
        "timestamp": 1700000000.0,
        "detections": [{"vehicle_class": "car"}],
        "violations": [{"violation_type": "speeding"}],
    }
)

CASES = [
    ("data_upload", "store", [PAYLOAD_CID, METADATA]),
    (
        "provenance",
        "record_many",
        [json.dumps([{"entry_id": "entry-1", "action": "stored", "actor": "cam-7"}])],
    ),
    ("trust_score", "put_score", ["cam-7", json.dumps({"score": 0.75})]),
]


@pytest.fixture()
def channel_and_client():
    net = FabricNetwork()
    channel = net.create_channel(
        "traffic", orgs=["org1", "org2"], peers_per_org=1, consensus="solo"
    )
    for chaincode in (DataUploadChaincode(), ProvenanceChaincode(), TrustScoreChaincode()):
        channel.install_chaincode(chaincode)
    client = net.register_identity("alice", "org1", role=Role.CLIENT)
    return channel, client


def rwset_bytes(rwset) -> bytes:
    return canonical_json(rwset.to_dict())


@pytest.mark.parametrize("chaincode,fn,args", CASES, ids=[c[0] for c in CASES])
class TestRepeatedSimulation:
    def test_two_simulations_are_byte_identical(self, channel_and_client, chaincode, fn, args):
        channel, client = channel_and_client
        proposal, responses = channel.endorse(client, chaincode, fn, args)
        peer = next(iter(channel.peers.values()))
        first = peer.resimulate(proposal)
        second = peer.resimulate(proposal)
        assert rwset_bytes(first[0]) == rwset_bytes(second[0])
        assert first[0].digest() == second[0].digest()
        assert first[1] == second[1]  # response strings too
        assert first[2] and second[2]

    def test_resimulation_matches_the_endorsed_rwset(
        self, channel_and_client, chaincode, fn, args
    ):
        channel, client = channel_and_client
        proposal, responses = channel.endorse(client, chaincode, fn, args)
        peer = next(iter(channel.peers.values()))
        resim_rwset, resim_response, ok = peer.resimulate(proposal)
        assert ok
        assert resim_rwset.digest() == responses[0].rwset.digest()
        assert rwset_bytes(resim_rwset) == rwset_bytes(responses[0].rwset)
        assert resim_response == responses[0].response


class TestCrossPeerAgreement:
    @pytest.mark.parametrize("chaincode,fn,args", CASES, ids=[c[0] for c in CASES])
    def test_all_endorsers_agree_byte_for_byte(self, channel_and_client, chaincode, fn, args):
        channel, client = channel_and_client
        _, responses = channel.endorse(client, chaincode, fn, args)
        assert len(responses) >= 2
        digests = {r.rwset.digest() for r in responses}
        blobs = {rwset_bytes(r.rwset) for r in responses}
        assert len(digests) == 1 and len(blobs) == 1
