"""Trust scoring for untrusted data sources (paper §III-A).

The paper scores untrusted sources on two "practical and efficient" signals
— *historical reliability* ("tracking data correctness over time") and
*cross-validation with trusted data* — plus *peer endorsements*, explicitly
preferring these over ML methods for their low computational cost. This
module implements each signal and their weighted combination:

* :class:`HistoricalReliability` — a Beta-Bernoulli estimator over the
  source's accept/reject history with exponential decay, so old behaviour
  fades and a source can neither coast on ancient good deeds nor be damned
  forever by early mistakes. The Beta prior doubles as the "new source"
  starting score.
* cross-validation and endorsement scores arrive from
  :mod:`repro.trust.crossval` / the validator votes and are folded in by
  :class:`TrustScore`.

Scores live in [0, 1]; sources above ``TRUSTED_THRESHOLD`` short-cut
validation (the paper's trusted tier: traffic cameras, drones); sources
below ``MIN_TRUST_THRESHOLD`` are quarantined ("data may require further
validation from multiple trusted sources").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class HistoricalReliability:
    """Decayed Beta-Bernoulli estimate of a source's accuracy.

    ``alpha``/``beta`` start at the prior (1, 1) — an uninformative 0.5.
    Each accepted record adds to ``alpha``, each rejected one to ``beta``;
    both decay by ``decay`` per observation so the estimate tracks a moving
    window of roughly ``1/(1-decay)`` observations.
    """

    decay: float = 0.98
    alpha: float = 1.0
    beta: float = 1.0
    observations: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")

    def record(self, correct: bool) -> None:
        self.alpha *= self.decay
        self.beta *= self.decay
        if correct:
            self.alpha += 1.0
        else:
            self.beta += 1.0
        self.observations += 1

    @property
    def score(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def confidence(self) -> float:
        """0→1 as evidence accumulates; scales the weight history gets."""
        effective_n = self.alpha + self.beta - 2.0
        return effective_n / (effective_n + 5.0)


@dataclass(frozen=True)
class TrustWeights:
    """Relative weights of the three signals (normalized on use)."""

    history: float = 0.5
    cross_validation: float = 0.3
    endorsement: float = 0.2

    def __post_init__(self) -> None:
        if min(self.history, self.cross_validation, self.endorsement) < 0:
            raise ValueError("trust weights must be non-negative")
        if self.history + self.cross_validation + self.endorsement <= 0:
            raise ValueError("at least one trust weight must be positive")


@dataclass
class TrustScore:
    """One source's combined trust state."""

    source_id: str
    weights: TrustWeights = field(default_factory=TrustWeights)
    history: HistoricalReliability = field(default_factory=HistoricalReliability)
    last_cross_validation: float = 0.5
    last_endorsement: float = 0.5

    def update(
        self,
        correct: bool,
        cross_validation: float | None = None,
        endorsement: float | None = None,
    ) -> float:
        """Fold one validated submission into the score; returns the new value."""
        self.history.record(correct)
        if cross_validation is not None:
            if not 0.0 <= cross_validation <= 1.0:
                raise ValueError("cross_validation score must be in [0, 1]")
            self.last_cross_validation = cross_validation
        if endorsement is not None:
            if not 0.0 <= endorsement <= 1.0:
                raise ValueError("endorsement score must be in [0, 1]")
            self.last_endorsement = endorsement
        return self.value

    @property
    def value(self) -> float:
        """Weighted combination, with history's weight scaled by how much
        evidence actually backs it (a brand-new source's history says
        nothing, so cross-validation and endorsements dominate early)."""
        w = self.weights
        history_weight = w.history * self.history.confidence
        total = history_weight + w.cross_validation + w.endorsement
        return (
            history_weight * self.history.score
            + w.cross_validation * self.last_cross_validation
            + w.endorsement * self.last_endorsement
        ) / total

    def to_chain_record(self) -> dict:
        """The on-chain representation (paper: trust scores are stored
        on-chain for future reference)."""
        return {
            "source_id": self.source_id,
            "score": round(self.value, 6),
            "history_score": round(self.history.score, 6),
            "observations": self.history.observations,
            "cross_validation": round(self.last_cross_validation, 6),
            "endorsement": round(self.last_endorsement, 6),
        }
