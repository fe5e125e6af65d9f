"""ResilienceHub: one place a deployment's resilience knobs live.

The framework owns one hub; it hands out a shared :class:`RetryPolicy`,
a deterministic jitter seed, and one lazily created
:class:`CircuitBreaker` per dependency ("fabric", "ipfs", ...), so every
integration point applies the same semantics and all breaker state is
inspectable from a single object.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import RetryPolicy


class ResilienceHub:
    """Shared retry policy + per-dependency circuit breakers."""

    def __init__(
        self,
        failure_threshold: int = 8,
        cooldown_s: float = 0.25,
        seed: int = 0,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retry_policy = RetryPolicy()
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.seed = seed
        self._now = now
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, dependency: str) -> CircuitBreaker:
        """The breaker guarding ``dependency`` (created on first use)."""
        breaker = self._breakers.get(dependency)
        if breaker is None:
            breaker = self._breakers[dependency] = CircuitBreaker(
                dependency,
                failure_threshold=self.failure_threshold,
                cooldown_s=self.cooldown_s,
                now=self._now,
            )
        return breaker

    def breakers(self) -> dict[str, CircuitBreaker]:
        return dict(self._breakers)

    def set_clock(self, now: Callable[[], float]) -> None:
        """Swap the time source for the hub and every existing breaker.

        Chaos scenarios use this to drive breaker cooldowns from a
        deterministic cycle clock instead of wall time, so open circuits
        half-open on a schedule the seed fully determines.
        """
        self._now = now
        for breaker in self._breakers.values():
            breaker.set_clock(now)
