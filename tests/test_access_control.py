"""Tests for the access-control chaincode and its retrieval-path enforcement."""

import json

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.errors import AccessDeniedError, ChaincodeError
from repro.trust import SourceTier

META = {"timestamp": 1.0, "detections": []}


@pytest.fixture(scope="module")
def env():
    framework = Framework(FrameworkConfig(consensus="solo", orgs=("police", "city")))
    police = Client(
        framework, framework.register_source("police-cam", org="police", tier=SourceTier.TRUSTED)
    )
    city = Client(
        framework, framework.register_source("city-analyst", org="city", tier=SourceTier.TRUSTED)
    )
    return framework, police, city


class TestAclChaincode:
    def test_open_entry_readable_by_anyone(self, env):
        framework, police, city = env
        receipt = police.submit(b"open frame", dict(META))
        assert city.retrieve(receipt.entry_id).data == b"open frame"

    def test_restricted_entry_denied_to_outsider(self, env):
        framework, police, city = env
        receipt = police.submit(b"sensitive frame", dict(META))
        police.restrict(receipt.entry_id, ["police"])
        with pytest.raises(AccessDeniedError):
            city.retrieve(receipt.entry_id)
        # Owner still reads it.
        assert police.retrieve(receipt.entry_id).data == b"sensitive frame"

    def test_denial_is_audited_on_chain(self, env):
        framework, police, city = env
        receipt = police.submit(b"audited frame", dict(META))
        police.restrict(receipt.entry_id, ["police"])
        with pytest.raises(AccessDeniedError):
            city.retrieve(receipt.entry_id)
        log = police.access_log(receipt.entry_id)
        assert any(e["org"] == "city" and e["outcome"] == "denied" for e in log)

    def test_grant_widens_access(self, env):
        framework, police, city = env
        receipt = police.submit(b"later shared", dict(META))
        police.restrict(receipt.entry_id, ["police"])
        with pytest.raises(AccessDeniedError):
            city.retrieve(receipt.entry_id)
        police.restrict(receipt.entry_id, ["police", "city"])
        assert city.retrieve(receipt.entry_id).data == b"later shared"

    def test_only_owner_org_may_change_acl(self, env):
        framework, police, city = env
        receipt = police.submit(b"mine", dict(META))
        police.restrict(receipt.entry_id, ["police"])
        with pytest.raises(ChaincodeError, match="only owner org"):
            city.restrict(receipt.entry_id, ["city"])

    def test_owner_always_in_allowed_set(self, env):
        framework, police, city = env
        receipt = police.submit(b"self-lockout-guard", dict(META))
        acl = police.restrict(receipt.entry_id, ["city"])  # forgot themselves
        assert "police" in acl["allowed_orgs"]
        assert police.retrieve(receipt.entry_id).verified

    def test_acl_validation(self, env):
        framework, police, _ = env
        receipt = police.submit(b"x", dict(META))
        with pytest.raises(ChaincodeError):
            police.restrict(receipt.entry_id, [])
        with pytest.raises(ChaincodeError):
            framework.channel.invoke(
                police.identity, "access_control", "set_acl", [receipt.entry_id, "{bad"]
            )

    def test_check_access_query(self, env):
        framework, police, _ = env
        receipt = police.submit(b"q", dict(META))
        police.restrict(receipt.entry_id, ["police"])
        out = json.loads(
            framework.channel.query(
                police.identity, "access_control", "check_access",
                [receipt.entry_id, "city"],
            )
        )
        assert out["allowed"] is False

    def test_log_access_outcome_validated(self, env):
        framework, police, _ = env
        with pytest.raises(ChaincodeError, match="granted.*denied|'granted' or 'denied'"):
            framework.channel.invoke(
                police.identity, "access_control", "log_access", ["e", "maybe"]
            )


class TestReadsSkipAPeerBehindTheChain:
    """A peer back online but not yet caught up answers no read while a
    peer at chain height is online: reads rank peers as endorsement does."""

    def make(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        owner = Client(
            framework, framework.register_source("cam", org="org1", tier=SourceTier.TRUSTED)
        )
        outsider = Client(
            framework, framework.register_source("analyst", org="org2", tier=SourceTier.TRUSTED)
        )
        lagger = framework.channel.peers["peer0.org1"]
        assert list(framework.channel.peers)[0] == lagger.name  # asked first before the fix
        return framework, owner, outsider, lagger

    def test_acl_set_while_a_peer_was_offline_is_enforced(self):
        framework, owner, outsider, lagger = self.make()
        receipt = owner.submit(b"restricted later", dict(META))
        lagger.online = False
        owner.restrict(receipt.entry_id, ["org1"])
        lagger.online = True  # no anti-entropy yet: it misses the ACL block
        assert lagger.ledger.height < framework.channel.height()
        with pytest.raises(AccessDeniedError):
            outsider.retrieve(receipt.entry_id)

    def test_entry_committed_while_a_peer_was_offline_is_found(self):
        framework, owner, outsider, lagger = self.make()
        lagger.online = False
        receipt = owner.submit(b"stored while away", dict(META))
        lagger.online = True
        raw = framework.channel.query(owner.identity, "data_retrieval", "get_data", [receipt.entry_id])
        assert json.loads(raw)["cid"] == receipt.cid
