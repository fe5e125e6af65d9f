"""Tests for keypairs and the HMAC-based signature scheme."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.keys import SIGNATURE_SIZE, KeyPair, PrivateKey, PublicKey
from repro.errors import SignatureError


class TestKeyPair:
    def test_from_seed_deterministic(self):
        assert KeyPair.from_seed("alice").public == KeyPair.from_seed("alice").public

    def test_from_seed_distinct_seeds(self):
        assert KeyPair.from_seed("alice").public != KeyPair.from_seed("bob").public

    def test_from_seed_accepts_bytes(self):
        assert KeyPair.from_seed(b"alice").public == KeyPair.from_seed("alice").public

    def test_public_derivable_from_private(self):
        kp = KeyPair.from_seed("x")
        assert kp.private.public_key() == kp.public


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        kp = KeyPair.from_seed("signer")
        sig = kp.sign(b"message")
        kp.public.verify(b"message", sig)  # must not raise
        assert kp.public.is_valid(b"message", sig)

    def test_signature_size_constant(self):
        kp = KeyPair.from_seed("signer")
        assert len(kp.sign(b"")) == SIGNATURE_SIZE
        assert len(kp.sign(b"x" * 10000)) == SIGNATURE_SIZE

    def test_tampered_message_rejected(self):
        kp = KeyPair.from_seed("signer")
        sig = kp.sign(b"message")
        assert not kp.public.is_valid(b"messagE", sig)

    def test_tampered_signature_rejected(self):
        kp = KeyPair.from_seed("signer")
        sig = bytearray(kp.sign(b"message"))
        sig[0] ^= 0x01
        assert not kp.public.is_valid(b"message", bytes(sig))

    def test_wrong_key_rejected(self):
        sig = KeyPair.from_seed("alice").sign(b"message")
        assert not KeyPair.from_seed("bob").public.is_valid(b"message", sig)

    def test_verify_raises_signature_error(self):
        kp = KeyPair.from_seed("signer")
        with pytest.raises(SignatureError):
            kp.public.verify(b"message", b"\x00" * SIGNATURE_SIZE)

    def test_short_signature_rejected(self):
        kp = KeyPair.from_seed("signer")
        with pytest.raises(SignatureError):
            kp.public.verify(b"message", b"short")

    def test_signature_deterministic_for_seeded_keys(self):
        a = KeyPair.from_seed("alice").sign(b"m")
        b = KeyPair.from_seed("alice").sign(b"m")
        assert a == b


class TestPublicKeySerialization:
    def test_hex_roundtrip(self):
        pub = KeyPair.from_seed("alice").public
        assert PublicKey.from_hex(pub.hex()) == pub

    def test_fingerprint_stable_and_short(self):
        pub = KeyPair.from_seed("alice").public
        assert pub.fingerprint() == pub.fingerprint()
        assert len(pub.fingerprint()) == 16


@given(st.binary(max_size=256), st.text(min_size=1, max_size=10))
def test_property_sign_verify(message, seed):
    kp = KeyPair.from_seed(seed)
    assert kp.public.is_valid(message, kp.sign(message))


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_property_cross_message_rejection(m1, m2):
    kp = KeyPair.from_seed("prop")
    sig = kp.sign(m1)
    if m1 != m2:
        assert not kp.public.is_valid(m2, sig)


@given(st.binary(min_size=32, max_size=32), st.binary(max_size=512))
def test_sign_equals_the_hmac_object_construction(key, message):
    """One ``hmac.digest`` call and a public key derived once per key sign
    the same bytes as an ``hmac.new`` object and a public key recomputed per
    signature."""
    private = PrivateKey(key)
    mac = hmac.new(key, message, hashlib.sha256).digest()
    public = hashlib.sha256(b"repro-pub-v1" + key).digest()
    expected = mac + hashlib.sha256(public + mac + message).digest()
    assert private.sign(message) == expected
    assert private.sign(message) == expected  # and again, from the derived key
    assert private.public_key() == PublicKey(public)
