"""Endorsement policies: which signatures make a transaction committable.

A policy is an expression tree over org principals, mirroring Fabric's
policy language::

    SignedBy("org1")                       # any org1 endorsement
    Or(SignedBy("org1"), SignedBy("org2"))
    OutOf(2, SignedBy("org1"), SignedBy("org2"), SignedBy("org3"))
    AnyOf("org1", "org2")                  # the channel default

Policies are evaluated at commit time against the set of orgs whose peers
produced valid endorsements — an unsatisfied policy marks the transaction
ENDORSEMENT_POLICY_FAILURE, exactly Fabric's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class Policy:
    """Base class; subclasses implement :meth:`satisfied_by`."""

    def satisfied_by(self, endorsing_orgs: Iterable[str]) -> bool:  # pragma: no cover
        raise NotImplementedError

    def required_orgs(self) -> set[str]:  # pragma: no cover
        """Orgs that could contribute to satisfying this policy."""
        raise NotImplementedError


@dataclass(frozen=True)
class SignedBy(Policy):
    org: str

    def satisfied_by(self, endorsing_orgs: Iterable[str]) -> bool:
        return self.org in set(endorsing_orgs)

    def required_orgs(self) -> set[str]:
        return {self.org}

    def __repr__(self) -> str:
        return f"SignedBy({self.org!r})"


@dataclass(frozen=True)
class OutOf(Policy):
    """At least ``n`` of the sub-policies must be satisfied."""

    n: int
    policies: tuple[Policy, ...]

    def __init__(self, n: int, *policies: Policy) -> None:
        if n < 1 or n > len(policies):
            raise ValueError(f"OutOf needs 1 <= n <= {len(policies)}, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "policies", tuple(policies))

    def satisfied_by(self, endorsing_orgs: Iterable[str]) -> bool:
        orgs = set(endorsing_orgs)
        return sum(1 for p in self.policies if p.satisfied_by(orgs)) >= self.n

    def required_orgs(self) -> set[str]:
        out: set[str] = set()
        for p in self.policies:
            out |= p.required_orgs()
        return out

    def __repr__(self) -> str:
        return f"OutOf({self.n}, {', '.join(map(repr, self.policies))})"


def Or(*policies: Policy) -> OutOf:
    """Any sub-policy suffices."""
    return OutOf(1, *policies)


def AnyOf(*orgs: str) -> OutOf:
    return Or(*(SignedBy(o) for o in orgs))

