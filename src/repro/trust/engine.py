"""The trust engine: per-source scoring, tiering, and admission decisions.

This is the component Figure 1 labels "trust score … assessed for untrusted
sources": the framework consults it before accepting a submission
(quarantined sources need extra corroboration) and updates it after the
validators vote. Trusted-tier sources (traffic cameras, drones — paper §III)
are registered as such and bypass scoring, but their observations feed the
cross-validator as ground truth for everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import TrustError
from repro.trust.crossval import CrossValidator, Observation, endorsement_score
from repro.trust.score import TrustScore, TrustWeights


# Score bands. At or above TRUSTED_THRESHOLD an untrusted source is treated
# like the trusted tier; below MIN_TRUST_THRESHOLD it is quarantined. The
# secondary index buckets sources by the same two numbers.
TRUSTED_THRESHOLD = 0.75
MIN_TRUST_THRESHOLD = 0.25
# Cross-validation a contradicted low-trust submission must reach under
# strict admission, and a corroborated accept must reach to count.
CORROBORATION_FLOOR = 0.5


class SourceTier(str, Enum):
    TRUSTED = "trusted"        # institutional: cameras, drones, city sensors
    UNTRUSTED = "untrusted"    # crowd-sourced: mobiles, social media
    QUARANTINED = "quarantined"  # score fell below the floor


@dataclass(frozen=True)
class AdmissionDecision:
    """What validation a submission must pass before it is recorded."""

    admitted: bool
    tier: SourceTier
    trust: float
    requires_corroboration: bool
    reason: str


@dataclass
class TrustEngine:
    weights: TrustWeights = field(default_factory=TrustWeights)
    cross_validator: CrossValidator = field(default_factory=CrossValidator)
    _scores: dict[str, TrustScore] = field(default_factory=dict)
    _tiers: dict[str, SourceTier] = field(default_factory=dict)

    # -- registration ------------------------------------------------------------

    def register_source(self, source_id: str, tier: SourceTier = SourceTier.UNTRUSTED) -> None:
        if source_id in self._tiers:
            raise TrustError(f"source {source_id!r} already registered")
        if tier is SourceTier.QUARANTINED:
            raise TrustError("cannot register a source directly into quarantine")
        self._tiers[source_id] = tier
        if tier is SourceTier.UNTRUSTED:
            self._scores[source_id] = TrustScore(source_id=source_id, weights=self.weights)

    def is_registered(self, source_id: str) -> bool:
        return source_id in self._tiers

    def tier(self, source_id: str) -> SourceTier:
        try:
            return self._tiers[source_id]
        except KeyError:
            raise TrustError(f"unknown source {source_id!r}") from None

    def score(self, source_id: str) -> float:
        if self.tier(source_id) is SourceTier.TRUSTED:
            return 1.0
        return self._scores[source_id].value

    # -- admission --------------------------------------------------------------------

    def admit(self, source_id: str) -> AdmissionDecision:
        """Gate a submission before validation (paper Figure 1, step ②)."""
        tier = self.tier(source_id)
        if tier is SourceTier.TRUSTED:
            return AdmissionDecision(
                admitted=True,
                tier=tier,
                trust=1.0,
                requires_corroboration=False,
                reason="trusted-tier source",
            )
        value = self._scores[source_id].value
        if tier is SourceTier.QUARANTINED:
            return AdmissionDecision(
                admitted=False,
                tier=tier,
                trust=value,
                requires_corroboration=True,
                reason="source is quarantined pending corroborated submissions",
            )
        return AdmissionDecision(
            admitted=True,
            tier=tier,
            trust=value,
            requires_corroboration=value < TRUSTED_THRESHOLD,
            reason="untrusted source admitted with validation",
        )

    # -- updates ------------------------------------------------------------------------

    def observe_trusted(self, obs: Observation) -> None:
        """Feed a trusted-tier observation into the cross-validation window."""
        if self.tier(obs.source_id) is not SourceTier.TRUSTED:
            raise TrustError(f"{obs.source_id!r} is not a trusted-tier source")
        self.cross_validator.add_trusted(obs)

    def cross_validate(self, obs: Observation) -> float:
        return self.cross_validator.score(obs)

    def record_validation(
        self,
        source_id: str,
        accepted: bool,
        valid_votes: int,
        invalid_votes: int,
        observation: Observation | None = None,
    ) -> float:
        """Fold a consensus outcome into the source's score; returns it.

        Quarantine / release transitions happen here: a source whose score
        crosses ``MIN_TRUST_THRESHOLD`` downward is quarantined; a
        quarantined source that accumulates corroborated accepts is released.
        """
        tier = self.tier(source_id)
        if tier is SourceTier.TRUSTED:
            return 1.0
        trust = self._scores[source_id]
        cross = self.cross_validate(observation) if observation is not None else None
        endorse = endorsement_score(valid_votes, invalid_votes)
        value = trust.update(accepted, cross_validation=cross, endorsement=endorse)
        if value < MIN_TRUST_THRESHOLD:
            self._tiers[source_id] = SourceTier.QUARANTINED
        elif tier is SourceTier.QUARANTINED and value >= MIN_TRUST_THRESHOLD * 2:
            self._tiers[source_id] = SourceTier.UNTRUSTED
        return value

    def record_corroborated_accept(self, source_id: str, cross_validation: float) -> float:
        """Extra-validation path for quarantined sources: an accept backed by
        strong trusted corroboration counts toward release."""
        if self.tier(source_id) is SourceTier.TRUSTED:
            return 1.0
        if cross_validation < CORROBORATION_FLOOR:
            raise TrustError(
                f"corroborated accept requires cross-validation >= {CORROBORATION_FLOOR}"
            )
        trust = self._scores[source_id]
        value = trust.update(True, cross_validation=cross_validation)
        if (
            self._tiers[source_id] is SourceTier.QUARANTINED
            and value >= MIN_TRUST_THRESHOLD * 2
        ):
            self._tiers[source_id] = SourceTier.UNTRUSTED
        return value

    # -- reporting -----------------------------------------------------------------------

    def chain_record(self, source_id: str) -> dict:
        tier = self.tier(source_id)
        if tier is SourceTier.TRUSTED:
            return {"source_id": source_id, "tier": tier.value, "score": 1.0}
        record = self._scores[source_id].to_chain_record()
        record["tier"] = tier.value
        return record

    def sources(self, tier: SourceTier | None = None) -> list[str]:
        if tier is None:
            return sorted(self._tiers)
        return sorted(s for s, t in self._tiers.items() if t is tier)
