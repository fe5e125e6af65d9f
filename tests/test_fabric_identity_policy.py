"""Tests for identities, MSPs, and endorsement policies."""

import pytest

from repro.errors import IdentityError, SignatureError
from repro.fabric import (
    AnyOf,
    Identity,
    IdentityInfo,
    MSPRegistry,
    OutOf,
    Role,
    SignedBy,
)
from repro.fabric.policy import Or


class TestIdentity:
    def test_deterministic_identity(self):
        a = Identity.create("alice", "org1")
        b = Identity.create("alice", "org1")
        assert a.keypair.public == b.keypair.public

    def test_org_scoped_keys(self):
        assert (
            Identity.create("alice", "org1").keypair.public
            != Identity.create("alice", "org2").keypair.public
        )

    def test_info_roundtrip(self):
        info = Identity.create("alice", "org1", Role.ADMIN).info()
        assert IdentityInfo.from_dict(info.to_dict()) == info

    def test_sign_matches_info_key(self):
        identity = Identity.create("alice", "org1")
        sig = identity.sign(b"msg")
        identity.info().public_key.verify(b"msg", sig)


class TestMSP:
    def make(self):
        registry = MSPRegistry()
        registry.add_org("org1")
        registry.add_org("org2")
        return registry

    def test_enroll_and_validate(self):
        registry = self.make()
        alice = Identity.create("alice", "org1")
        registry.enroll(alice)
        registry.validate_identity(alice.info())  # must not raise

    def test_unenrolled_rejected(self):
        registry = self.make()
        mallory = Identity.create("mallory", "org1")
        with pytest.raises(IdentityError):
            registry.validate_identity(mallory.info())

    def test_unknown_org_rejected(self):
        registry = self.make()
        ghost = Identity.create("x", "org9")
        with pytest.raises(IdentityError):
            registry.validate_identity(ghost.info())

    def test_duplicate_enrollment_rejected(self):
        registry = self.make()
        alice = Identity.create("alice", "org1")
        registry.enroll(alice)
        with pytest.raises(IdentityError):
            registry.enroll(alice)

    def test_cross_org_enrollment_rejected(self):
        registry = self.make()
        alice = Identity.create("alice", "org1")
        with pytest.raises(IdentityError):
            registry.msp("org2").enroll(alice)

    def test_revocation(self):
        registry = self.make()
        alice = Identity.create("alice", "org1")
        registry.enroll(alice)
        registry.msp("org1").revoke("alice")
        with pytest.raises(IdentityError):
            registry.validate_identity(alice.info())

    def test_key_substitution_detected(self):
        """An attacker presenting alice's name with their own key fails."""
        registry = self.make()
        alice = Identity.create("alice", "org1")
        registry.enroll(alice)
        mallory = Identity.create("mallory", "org1")
        forged = IdentityInfo(
            name="alice",
            org="org1",
            role=Role.CLIENT,
            public_key_hex=mallory.keypair.public.hex(),
        )
        with pytest.raises(IdentityError):
            registry.validate_identity(forged)

    def test_verify_signature_end_to_end(self):
        registry = self.make()
        alice = Identity.create("alice", "org1")
        registry.enroll(alice)
        sig = alice.sign(b"payload")
        registry.verify_signature(alice.info(), b"payload", sig)
        with pytest.raises(SignatureError):
            registry.verify_signature(alice.info(), b"tampered", sig)


class TestPolicies:
    def test_signed_by(self):
        assert SignedBy("org1").satisfied_by({"org1"})
        assert not SignedBy("org1").satisfied_by({"org2"})

    def test_or(self):
        policy = Or(SignedBy("org1"), SignedBy("org2"))
        assert policy.satisfied_by({"org2"})
        assert not policy.satisfied_by({"org3"})

    def test_out_of(self):
        policy = OutOf(2, SignedBy("a"), SignedBy("b"), SignedBy("c"))
        assert policy.satisfied_by({"a", "c"})
        assert not policy.satisfied_by({"a"})

    def test_out_of_bounds_validated(self):
        with pytest.raises(ValueError):
            OutOf(0, SignedBy("a"))
        with pytest.raises(ValueError):
            OutOf(3, SignedBy("a"), SignedBy("b"))

    def test_nested(self):
        policy = OutOf(2, SignedBy("gov"), Or(SignedBy("org1"), SignedBy("org2")))
        assert policy.satisfied_by({"gov", "org2"})
        assert not policy.satisfied_by({"org1", "org2"})

    def test_required_orgs(self):
        policy = OutOf(2, SignedBy("a"), SignedBy("b"))
        assert policy.required_orgs() == {"a", "b"}
        assert AnyOf("x", "y").required_orgs() == {"x", "y"}
