"""End-to-end integration tests of the assembled framework (Figure 1)."""

import hashlib

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.errors import FabricError, TrustError, UntrustedSourceError
from repro.fabric import ValidationCode
from repro.trust import SourceTier
from repro.vision import SceneGenerator, SimulatedYolo, StaticCamera


@pytest.fixture(scope="module")
def bft_framework():
    return Framework(FrameworkConfig(consensus="bft", n_validators=4))


def make_client(framework, name, tier=SourceTier.UNTRUSTED):
    identity = framework.register_source(name, tier=tier)
    return Client(framework, identity)


META = {"timestamp": 1234.0, "camera_id": "cam-X",
        "detections": [{"vehicle_class": "car", "confidence": 0.92}]}


class TestStoreRetrieve:
    def test_full_store_path(self, bft_framework):
        client = make_client(bft_framework, "cam-sr-1", SourceTier.TRUSTED)
        receipt = client.submit(b"video-frame-bytes", dict(META))
        assert receipt.ok
        assert receipt.validation_code is ValidationCode.VALID
        assert receipt.cid.startswith("b")
        assert receipt.data_hash == hashlib.sha256(b"video-frame-bytes").hexdigest()

    def test_retrieve_returns_verified_bytes(self, bft_framework):
        client = make_client(bft_framework, "cam-sr-2", SourceTier.TRUSTED)
        receipt = client.submit(b"payload-123", dict(META))
        result = client.retrieve(receipt.entry_id)
        assert result.data == b"payload-123"
        assert result.verified
        assert result.record["cid"] == receipt.cid

    def test_data_lands_in_ipfs_and_metadata_on_chain(self, bft_framework):
        client = make_client(bft_framework, "cam-sr-3", SourceTier.TRUSTED)
        receipt = client.submit(b"hybrid-split", dict(META))
        # Off-chain: the cluster serves the bytes by CID.
        from repro.crypto.cid import CID

        assert bft_framework.ipfs.cat(CID.parse(receipt.cid)) == b"hybrid-split"
        # On-chain: no peer's world state holds the raw bytes, only metadata.
        record = client.get_metadata(receipt.entry_id)
        assert record["data_hash"] == receipt.data_hash
        for peer in bft_framework.channel.peers.values():
            for key, value in peer.world.range():
                assert b"hybrid-split" not in value

    def test_unregistered_source_rejected(self, bft_framework):
        from repro.fabric import Identity

        ghost = Identity.create("ghost", "org1")
        bft_framework.fabric.msp_registry.enroll(ghost)  # MSP yes, trust no
        client = Client(bft_framework, ghost)
        with pytest.raises(TrustError):
            client.submit(b"x", dict(META))

    def test_ledger_verifies_after_many_submissions(self, bft_framework):
        client = make_client(bft_framework, "cam-sr-4", SourceTier.TRUSTED)
        for i in range(3):
            client.submit(f"frame-{i}".encode(), dict(META))
        for peer in bft_framework.channel.peers.values():
            peer.ledger.verify_chain()


class TestProvenance:
    def test_lineage_records_store_and_access(self, bft_framework):
        client = make_client(bft_framework, "cam-prov-1", SourceTier.TRUSTED)
        receipt = client.submit(b"provenance-payload", dict(META))
        client.retrieve(receipt.entry_id)
        lineage = client.provenance(receipt.entry_id)
        assert [e["action"] for e in lineage] == ["captured", "stored", "accessed"]
        assert lineage[1]["details"]["cid"] == receipt.cid

    def test_provenance_chain_verifies(self, bft_framework):
        client = make_client(bft_framework, "cam-prov-2", SourceTier.TRUSTED)
        receipt = client.submit(b"verify-me", dict(META))
        result = client.verify_provenance(receipt.entry_id)
        assert result["length"] == 2


class TestTrustIntegration:
    def test_untrusted_source_score_evolves_and_lands_on_chain(self, bft_framework):
        client = make_client(bft_framework, "mob-trust-1")
        before = client.trust_score()
        for i in range(5):
            client.submit(f"obs-{i}".encode(), dict(META))
        after = client.trust_score()
        assert after > before
        on_chain = client.on_chain_trust()
        assert on_chain["score"] == pytest.approx(after, abs=1e-5)

    def test_trusted_source_skips_scoring(self, bft_framework):
        client = make_client(bft_framework, "cam-trust-2", SourceTier.TRUSTED)
        receipt = client.submit(b"trusted-data", dict(META))
        assert receipt.trust_score == 1.0

    def test_quarantined_source_rejected(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        client = make_client(framework, "mob-bad")
        # Crash the score below the floor.
        for _ in range(30):
            framework.trust.record_validation("mob-bad", False, 0, 4)
        assert framework.trust.tier("mob-bad") is SourceTier.QUARANTINED
        with pytest.raises(UntrustedSourceError):
            client.submit(b"refused", dict(META))

    def test_consensus_votes_feed_validator_pool(self, bft_framework):
        client = make_client(bft_framework, "cam-vp-1", SourceTier.TRUSTED)
        receipt = client.submit(b"vp-data", dict(META))
        votes = bft_framework.consensus_votes(receipt.tx_id)
        assert len(votes) >= 3  # 2f+1 of 4
        assert all(votes.values())

    def test_cross_validation_raises_corroborated_score(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        cam = make_client(framework, "cam-cv", SourceTier.TRUSTED)
        mob = make_client(framework, "mob-cv")
        from repro.trust.crossval import Observation

        cam_obs = Observation("cam-cv", lat=12.95, lon=77.6, timestamp=50.0, counts={"car": 3})
        cam.submit(b"cam-frame", dict(META), observation=cam_obs)
        agreeing = Observation("mob-cv", lat=12.95, lon=77.6, timestamp=55.0, counts={"car": 3})
        mob.submit(b"mob-photo", dict(META), observation=agreeing)
        record = framework.trust.chain_record("mob-cv")
        assert record["cross_validation"] > 0.8


class TestVisionPipeline:
    def test_submit_frame_end_to_end(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        client = make_client(framework, "cam-vision", SourceTier.TRUSTED)
        scene = SceneGenerator(seed=21, density=4.0).scene("e2e")
        frame = StaticCamera("cam-vision").capture(scene)
        receipt = client.submit_frame(frame)
        assert receipt.ok
        result = client.retrieve(receipt.entry_id)
        assert result.data == frame.to_bytes()
        assert result.record["metadata"]["source_id"] == "cam-vision"
        # Detections made it into the on-chain metadata.
        n_dets = len(result.record["metadata"]["detections"])
        assert n_dets == len(SimulatedYolo().detect(frame))

    def test_frame_query_by_vehicle_class(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        client = make_client(framework, "cam-vq", SourceTier.TRUSTED)
        gen = SceneGenerator(seed=22, density=5.0)
        camera = StaticCamera("cam-vq")
        for i in range(3):
            client.submit_frame(camera.capture(gen.scene(f"q{i}")))
        rows = client.query("source_id = 'cam-vq'")
        assert len(rows) == 3


class TestFrameworkShape:
    def test_paper_testbed_defaults(self):
        config = FrameworkConfig()
        assert config.orgs == ("org1", "org2")
        assert config.n_ipfs_nodes == 2
        assert config.consensus == "bft"

    def test_solo_mode_has_no_validators(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        assert framework.consensus_votes("whatever") == {}

    def test_unknown_consensus_is_refused_not_replaced(self):
        # Only "solo" and "bft" order transactions; any other name must stop
        # the build rather than quietly fall back to one of them.
        with pytest.raises(FabricError, match="'raft'"):
            Framework(FrameworkConfig(consensus="raft"))

    def test_all_chaincodes_installed(self, bft_framework):
        peer = next(iter(bft_framework.channel.peers.values()))
        assert set(peer.chaincodes.names()) == {
            "admin_enrollment",
            "user_registration",
            "data_upload",
            "data_retrieval",
            "provenance",
            "trust_score",
            "access_control",
        }
