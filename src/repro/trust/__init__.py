"""Trust management for untrusted sources: historical reliability,
cross-validation against trusted records, peer endorsements, and validator
pool accountability (paper §III-A)."""

from repro.trust.crossval import CrossValidator, Observation, endorsement_score
from repro.trust.engine import AdmissionDecision, SourceTier, TrustEngine
from repro.trust.score import HistoricalReliability, TrustScore, TrustWeights
from repro.trust.validator_pool import ValidatorPool, ValidatorRecord

__all__ = [
    "CrossValidator",
    "Observation",
    "endorsement_score",
    "AdmissionDecision",
    "SourceTier",
    "TrustEngine",
    "HistoricalReliability",
    "TrustScore",
    "TrustWeights",
    "ValidatorPool",
    "ValidatorRecord",
]
