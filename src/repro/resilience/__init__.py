"""repro.resilience — production-style failure-handling primitives.

The layer that makes the storage/retrieval pipeline survivable: retries
with exponential backoff and *deterministic* jitter (seeded streams, never
wall-clock entropy), per-dependency circuit breakers with the standard
closed/open/half-open machine, and deadline budgets. Every recovery
action is metered into the shared :mod:`repro.obs` registry
(``retries_total``, ``circuit_state``, ``ipfs_failover_total``, ...) so
fault → recovery causality shows up in traces and ``repro metrics`` output.

Integration points live where failures actually bite:
:meth:`repro.ipfs.cluster.IpfsCluster.cat` fails over across providers and
replicas, :meth:`repro.fabric.channel.Channel.endorse` tries surviving
peers of an org, and :class:`repro.core.framework.Framework` routes client
writes through :meth:`~repro.core.framework.Framework.resilient_invoke`.
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.hub import ResilienceHub
from repro.resilience.retry import Budget, RetryPolicy, retry

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ResilienceHub",
    "Budget",
    "RetryPolicy",
    "retry",
]
