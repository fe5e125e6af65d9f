"""Keypairs and digital signatures for framework identities.

Hyperledger Fabric identities sign proposals and transactions with ECDSA
certificates issued by an organization CA. This reproduction substitutes a
dependency-free HMAC-based scheme with the same *interface properties* the
framework relies on:

* a keypair with a private signing key and a public verification key,
* signatures bound to both the message and the keypair,
* verification that fails for any other key or tampered message.

The scheme: the private key is 32 random bytes; the public key is
``SHA-256("repro-pub" || private)``. A signature over message ``m`` is
``HMAC-SHA256(private, m)`` accompanied by a *verifier tag*
``SHA-256(public || signature || m)``. Verification recomputes the tag from
the public key. Because only the holder of ``private`` can produce the HMAC
whose tag matches, a forger without the private key must invert SHA-256.

This is **not** publicly verifiable asymmetric crypto (verification here
checks internal consistency, and honest verifiers in this framework also keep
a registry of public keys — exactly what Fabric's MSP does with certificates).
It deliberately preserves the framework-visible behaviour: per-identity
unforgeable signatures with constant size and O(message) signing cost, so the
timing shape of the paper's signing/validation path is intact.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.errors import SignatureError
from repro.obs.prof import profiled

_PUB_DOMAIN = b"repro-pub-v1"
SIGNATURE_SIZE = 64  # 32-byte HMAC + 32-byte verifier tag


@dataclass(frozen=True)
class PublicKey:
    """Verification half of a keypair; safe to share and store on-chain."""

    key_bytes: bytes

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid.

        A valid signature's verifier tag must equal
        ``SHA-256(public || mac || message)``.
        """
        with profiled("crypto.verify", n_bytes=len(message)):
            if len(signature) != SIGNATURE_SIZE:
                raise SignatureError(
                    f"signature must be {SIGNATURE_SIZE} bytes, got {len(signature)}"
                )
            mac, tag = signature[:32], signature[32:]
            expected = hashlib.sha256(self.key_bytes + mac + message).digest()
            if not hmac.compare_digest(tag, expected):
                raise SignatureError("signature verification failed")

    def is_valid(self, message: bytes, signature: bytes) -> bool:
        """Boolean form of :meth:`verify`."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True

    def fingerprint(self) -> str:
        """Short stable identifier for logs and on-chain identity records."""
        return hashlib.sha256(self.key_bytes).hexdigest()[:16]

    def hex(self) -> str:
        return self.key_bytes.hex()

    @classmethod
    def from_hex(cls, text: str) -> "PublicKey":
        return cls(bytes.fromhex(text))


@dataclass(frozen=True)
class PrivateKey:
    """Signing half of a keypair; never leaves the owning identity."""

    key_bytes: bytes

    def public_key(self) -> PublicKey:
        return PublicKey(hashlib.sha256(_PUB_DOMAIN + self.key_bytes).digest())

    def sign(self, message: bytes) -> bytes:
        """Sign ``message``; returns a 64-byte signature."""
        with profiled("crypto.sign", n_bytes=len(message)):
            mac = hmac.new(self.key_bytes, message, hashlib.sha256).digest()
            tag = hashlib.sha256(self.public_key().key_bytes + mac + message).digest()
            return mac + tag


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key and its public key."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "KeyPair":
        """Deterministic keypair for tests and reproducible experiments."""
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        priv = PrivateKey(hashlib.sha256(b"repro-key-seed" + seed).digest())
        return cls(private=priv, public=priv.public_key())

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)
