"""Retry with exponential backoff and deterministic jitter.

The framework runs in simulated or compressed time, so :func:`retry` never
sleeps by default — backoff amounts are computed (and metered into the
``retry_backoff_seconds_total`` counter so experiments can report what a
real deployment would have waited) and an injectable ``sleep`` callable lets
callers charge a simulated clock or really sleep. Jitter is drawn from a
:func:`repro.util.rng.rng_for` stream derived from ``(seed, op)``, never
from wall-clock entropy, so a given seed always produces the identical
backoff sequence — the property chaos tests rely on.

The happy path is free: a first-attempt success touches no registry and
allocates no RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import ReproError, RetryExhaustedError
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.util.rng import rng_for

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts and how long to back off between them."""

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5  # fraction of each delay that is randomized

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_s(self, attempt: int, u: float) -> float:
        """Delay before retry number ``attempt`` (1-based); ``u`` in [0, 1).

        Exponential growth capped at ``max_delay_s``, then scaled into
        ``[(1 - jitter) * raw, raw]`` by the deterministic draw ``u``.
        """
        raw = min(self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s)
        return raw * (1.0 - self.jitter) + raw * self.jitter * u


def retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None = None,
    retryable: tuple[type[BaseException], ...] = (ReproError,),
    should_retry: Callable[[BaseException], bool] | None = None,
    op: str = "op",
    seed: int = 0,
    sleep: Callable[[float], None] | None = None,
) -> T:
    """Call ``fn`` until it succeeds or the policy is exhausted.

    * ``retryable`` — exception classes eligible for retry; anything else
      propagates immediately.
    * ``should_retry`` — optional refinement: return ``False`` to veto a
      retry for a specific (retryable-typed) exception.
    * ``op`` — label for metrics/spans and the jitter stream.
    * ``sleep`` — optional backoff sink (e.g. a simulated clock's advance).

    Raises :class:`RetryExhaustedError` (with ``last_error`` chained) when
    attempts run out, or re-raises the original error when vetoed.
    """
    policy = policy or RetryPolicy()
    rng = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except retryable as exc:
            if should_retry is not None and not should_retry(exc):
                raise
            if attempt >= policy.max_attempts:
                get_registry().counter("retry_exhausted_total", {"op": op}).inc()
                raise RetryExhaustedError(op, attempt, exc) from exc
            if rng is None:
                rng = rng_for(seed, "resilience", op)
            delay = policy.backoff_s(attempt, float(rng.random()))
            registry = get_registry()
            registry.counter("retries_total", {"op": op}).inc()
            registry.counter("retry_backoff_seconds_total", {"op": op}).inc(delay)
            with obs_span("resilience.retry") as sp:
                sp.set_attr("op", op)
                sp.set_attr("attempt", attempt)
                sp.set_attr("backoff_s", round(delay, 6))
                sp.set_attr("error", f"{type(exc).__name__}: {exc}"[:160])
            if sleep is not None:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
