"""Membership Service Provider: the permissioning layer of the fabric.

Each organization runs an MSP that enrolls identities, answers "is this
public key really *alice@org1* with role *client*?", and maintains a
revocation list. The :class:`MSPRegistry` aggregates per-org MSPs for the
channel — the component that makes the blockchain *permissioned*: a
signature is only as good as the registered, unrevoked identity behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import IdentityError, SignatureError
from repro.fabric.identity import Identity, IdentityInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.tx import TxProposal


@dataclass
class MSP:
    """One organization's membership records."""

    org: str
    _members: dict[str, IdentityInfo] = field(default_factory=dict)
    _revoked: set[str] = field(default_factory=set)

    def enroll(self, identity: Identity | IdentityInfo) -> IdentityInfo:
        info = identity.info() if isinstance(identity, Identity) else identity
        if info.org != self.org:
            raise IdentityError(
                f"cannot enroll {info.name!r} of org {info.org!r} into MSP {self.org!r}"
            )
        if info.name in self._members:
            raise IdentityError(f"identity {info.name!r} already enrolled in {self.org!r}")
        self._members[info.name] = info
        return info

    def revoke(self, name: str) -> None:
        if name not in self._members:
            raise IdentityError(f"cannot revoke unknown identity {name!r}")
        self._revoked.add(name)

    def is_valid(self, info: IdentityInfo) -> bool:
        """Enrolled, unrevoked, and the registered key matches."""
        registered = self._members.get(info.name)
        return (
            registered is not None
            and info.name not in self._revoked
            and registered.public_key_hex == info.public_key_hex
            and registered.role == info.role
        )


class MSPRegistry:
    """All organizations on a channel."""

    def __init__(self) -> None:
        self._msps: dict[str, MSP] = {}

    def add_org(self, org: str) -> MSP:
        if org in self._msps:
            raise IdentityError(f"org {org!r} already registered")
        msp = MSP(org=org)
        self._msps[org] = msp
        return msp

    def msp(self, org: str) -> MSP:
        try:
            return self._msps[org]
        except KeyError:
            raise IdentityError(f"unknown org {org!r}") from None

    def orgs(self) -> list[str]:
        return sorted(self._msps)

    def enroll(self, identity: Identity) -> IdentityInfo:
        return self.msp(identity.org).enroll(identity)

    def validate_identity(self, info: IdentityInfo) -> None:
        """Raise unless ``info`` is a live member of a registered org."""
        if info.org not in self._msps:
            raise IdentityError(f"unknown org {info.org!r}")
        if not self._msps[info.org].is_valid(info):
            raise IdentityError(
                f"identity {info.name!r}@{info.org!r} is not enrolled, was revoked, "
                "or presented a mismatched key"
            )

    def verify_signature(self, info: IdentityInfo, message: bytes, signature: bytes) -> None:
        """Identity check plus cryptographic signature verification."""
        self.validate_identity(info)
        try:
            info.public_key.verify(message, signature)
        except SignatureError as exc:
            raise _bad_signature(info, str(exc)) from exc

    def verify_proposal(self, proposal: "TxProposal") -> None:
        """:meth:`verify_signature` of a proposal's creator over its signing
        payload. The signature's verdict is remembered on the proposal
        (``TxProposal.signature_error``); membership is checked on every
        call, so a revocation after the verdict still refuses."""
        self.validate_identity(proposal.creator)
        error = proposal.signature_error()
        if error is not None:
            raise _bad_signature(proposal.creator, error)


def _bad_signature(info: IdentityInfo, why: str) -> SignatureError:
    return SignatureError(f"bad signature from {info.name!r}@{info.org!r}: {why}")
