"""Identities: who can act on the blockchain, and in what role.

An :class:`Identity` pairs a name with an organization, a role, and a
keypair — the reproduction's stand-in for Fabric's X.509 enrollment
certificates. The public half (:class:`IdentityInfo`) is what proposals
carry as the *creator* and what the MSP registry stores; the private half
never leaves the client process.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from repro.crypto.keys import KeyPair, PublicKey


class Role(str, Enum):
    """Principal roles recognized by endorsement policies and chaincodes."""

    ADMIN = "admin"
    PEER = "peer"
    CLIENT = "client"
    ORDERER = "orderer"


@dataclass(frozen=True)
class IdentityInfo:
    """The shareable face of an identity (goes into proposals and blocks)."""

    name: str
    org: str
    role: Role
    public_key_hex: str

    @cached_property
    def public_key(self) -> PublicKey:
        return PublicKey.from_hex(self.public_key_hex)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "org": self.org,
            "role": self.role.value,
            "public_key": self.public_key_hex,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "IdentityInfo":
        return cls(
            name=doc["name"],
            org=doc["org"],
            role=Role(doc["role"]),
            public_key_hex=doc["public_key"],
        )


@dataclass(frozen=True)
class Identity:
    """A full identity with signing capability."""

    name: str
    org: str
    role: Role
    keypair: KeyPair

    @classmethod
    def create(cls, name: str, org: str, role: Role = Role.CLIENT) -> "Identity":
        """Deterministic identity (key derived from name+org), for tests and
        reproducible experiments; use :meth:`create_random` otherwise."""
        return cls(name=name, org=org, role=role, keypair=KeyPair.from_seed(f"{org}/{name}"))

    @classmethod
    def create_random(cls, name: str, org: str, role: Role = Role.CLIENT) -> "Identity":
        return cls(name=name, org=org, role=role, keypair=KeyPair.generate())

    @cached_property
    def _info(self) -> IdentityInfo:
        return IdentityInfo(
            name=self.name,
            org=self.org,
            role=self.role,
            public_key_hex=self.keypair.public.hex(),
        )

    def info(self) -> IdentityInfo:
        """The public half — one frozen value per identity, shared by every
        proposal and endorsement it signs (so its key is parsed once)."""
        return self._info

    def sign(self, message: bytes) -> bytes:
        return self.keypair.sign(message)
