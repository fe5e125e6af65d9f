"""Cross-validation of untrusted submissions against trusted records.

The paper's second trust signal: "cross-validation ensures new inputs match
verified information". An untrusted observation (say, a crowd-sourced
report of three trucks at junction X at 10:04) is compared against trusted
records near it in space and time; agreement raises the submission's
cross-validation score, contradiction lowers it, and *no nearby trusted
data* yields the uninformative 0.5 — absence of corroboration is not
evidence of falsehood.

Records are compared on the fields the paper's metadata schema carries:
location, timestamp, vehicle counts per class. Numeric agreement is scored
with a smooth kernel rather than a hard threshold so near-misses degrade
gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Observation:
    """A comparable record: where, when, and what was counted."""

    source_id: str
    lat: float
    lon: float
    timestamp: float
    counts: dict[str, int] = field(default_factory=dict)  # vehicle class -> count

    def location_distance(self, other: "Observation") -> float:
        """Euclidean degrees — adequate at city scale for similarity kernels."""
        return math.hypot(self.lat - other.lat, self.lon - other.lon)


@dataclass
class CrossValidator:
    """Scores observations against the trusted records fed to it."""

    # Records farther than these radii contribute nothing.
    max_distance_deg: float = 0.01  # ~1.1 km
    max_time_gap_s: float = 120.0
    _trusted: list[Observation] = field(default_factory=list)

    def add_trusted(self, obs: Observation) -> None:
        self._trusted.append(obs)

    def neighbours(self, obs: Observation) -> list[Observation]:
        return [
            t
            for t in self._trusted
            if t.location_distance(obs) <= self.max_distance_deg
            and abs(t.timestamp - obs.timestamp) <= self.max_time_gap_s
        ]

    def score(self, obs: Observation) -> float:
        """Cross-validation score in [0, 1]; 0.5 when no trusted neighbour."""
        nearby = self.neighbours(obs)
        if not nearby:
            return 0.5
        scores = [self._agreement(obs, t) for t in nearby]
        return sum(scores) / len(scores)

    def _agreement(self, obs: Observation, trusted: Observation) -> float:
        """Count agreement over the union of vehicle classes, weighted by
        spatio-temporal proximity."""
        classes = set(obs.counts) | set(trusted.counts)
        if classes:
            sims = []
            for cls in classes:
                a, b = obs.counts.get(cls, 0), trusted.counts.get(cls, 0)
                denom = max(a, b)
                sims.append(1.0 if denom == 0 else min(a, b) / denom)
            count_sim = sum(sims) / len(sims)
        else:
            count_sim = 1.0  # both empty: vacuous agreement
        # Proximity kernel: records right on top of each other count fully,
        # ones at the radius edge count ~60%.
        d = trusted.location_distance(obs) / self.max_distance_deg
        dt = abs(trusted.timestamp - obs.timestamp) / self.max_time_gap_s
        proximity = math.exp(-0.5 * (d * d + dt * dt))
        # Blend toward neutral 0.5 as proximity falls: weak matches should
        # not drag an honest source to zero.
        return proximity * count_sim + (1.0 - proximity) * 0.5


def endorsement_score(valid_votes: int, invalid_votes: int) -> float:
    """Peer-endorsement signal from the validators' consensus votes.

    Maps the vote split on a source's latest transaction into [0, 1] with a
    +1/+1 Laplace smoother, so a lone vote does not saturate the signal.
    """
    if valid_votes < 0 or invalid_votes < 0:
        raise ValueError("vote counts must be non-negative")
    return (valid_votes + 1.0) / (valid_votes + invalid_votes + 2.0)
