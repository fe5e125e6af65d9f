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
``mac || tag``, where the signer sets ``mac = HMAC-SHA256(private, m)`` and
``tag = SHA-256(public || mac || m)``. Verification recomputes the tag from
the public key and checks it; it cannot check ``mac``, which needs the
private key.

What this gives: a signature is bound to its message and its public key, so
an altered message, a signature moved to another message, or one checked
under another identity's key fails. What it does **not** give is
unforgeability. The public key is on the chain, so anyone can pick any
32-byte ``mac`` and compute the matching tag: this is not a digital
signature. It keeps the framework-visible shape (constant size, O(message)
signing and verification cost) and relies on the MSP only for membership.
ROADMAP item 2(b)-(c) replaces it with deterministic ECDSA P-256 and adds
tests that forge. Remembering a verdict (``fabric.tx``) adds no hole of its
own: it is kept per transaction object, and a forged signature arrives on a
fresh object and is checked like any other.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _public_bytes(self) -> bytes:
        """The public key, derived once per key rather than per signature."""
        return hashlib.sha256(_PUB_DOMAIN + self.key_bytes).digest()

    def public_key(self) -> PublicKey:
        return PublicKey(self._public_bytes)

    def sign(self, message: bytes) -> bytes:
        """Sign ``message``; returns a 64-byte signature."""
        with profiled("crypto.sign", n_bytes=len(message)):
            mac = hmac.digest(self.key_bytes, message, "sha256")
            return mac + hashlib.sha256(self._public_bytes + mac + message).digest()


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
