"""Exception hierarchy for the repro framework.

Every subsystem raises a subclass of :class:`ReproError` so callers can catch
framework failures without masking programming errors (``TypeError`` etc.).
The hierarchy mirrors the subsystem layout: crypto, storage (IPFS-like),
fabric (blockchain), consensus, trust, and query errors each get a branch.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""


# ---------------------------------------------------------------------------
# Encoding / crypto
# ---------------------------------------------------------------------------


class EncodingError(ReproError):
    """Malformed varint / base32 / CID input."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A digital signature failed verification."""


class MerkleProofError(CryptoError):
    """A Merkle inclusion proof failed verification."""


# ---------------------------------------------------------------------------
# Storage (IPFS-like subsystem)
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for content-addressed storage failures."""


class BlockNotFoundError(StorageError):
    """A block CID was not present in any reachable blockstore."""

    def __init__(self, cid: object) -> None:
        super().__init__(cid)
        self.cid = cid

    def __str__(self) -> str:
        # Rendered when shown, not when raised: a read raises one for each
        # block its store lacks before it fetches that block.
        return f"block not found: {self.cid}"


class InvalidBlockError(StorageError):
    """Block bytes do not hash to the CID they were presented under."""


class DagError(StorageError):
    """Malformed Merkle-DAG node or link structure."""


class DurabilityError(StorageError):
    """Invalid use of the durable-store/WAL layer, or a WAL record that no
    longer reproduces the outcome it recorded."""


class WalCorruptionError(DurabilityError):
    """A complete WAL frame failed its checksum — the medium lies, and
    nothing after the bad frame can be trusted; fall back to state transfer."""


class RecoveryError(DurabilityError):
    """Crash recovery could not complete (no usable donor, or donors at the
    same height disagree on the state digest)."""


# ---------------------------------------------------------------------------
# Network simulator
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class NodeUnreachableError(NetworkError):
    """Destination node is down or partitioned away."""


# ---------------------------------------------------------------------------
# Fabric (HLF-like subsystem)
# ---------------------------------------------------------------------------


class FabricError(ReproError):
    """Base class for blockchain subsystem failures."""


class IdentityError(FabricError):
    """Unknown, unauthorized, or revoked identity."""


@dataclass(frozen=True)
class EndorsementAttempt:
    """One peer (or org) tried during endorsement and why it failed.

    ``kind`` classifies the failure so failover logic and chaos tests can
    assert on causes: ``"offline"`` (the peer was down), ``"no_peers"``
    (an org had no online peer at all), or the raising error's class name
    for anything else (e.g. ``"ChaincodeNotFoundError"``).
    """

    peer: str
    org: str
    kind: str
    error: str = ""


class EndorsementError(FabricError):
    """A transaction proposal failed to gather a satisfying endorsement set.

    Carries the per-peer :class:`EndorsementAttempt` trail so callers (and
    chaos tests) can see which peers/orgs were tried and why each failed.
    """

    def __init__(self, message: str, attempts: tuple[EndorsementAttempt, ...] | list = ()) -> None:
        super().__init__(message)
        self.attempts: tuple[EndorsementAttempt, ...] = tuple(attempts)


class ChaincodeError(FabricError):
    """A chaincode invocation raised or returned an application error."""


class ChaincodeNotFoundError(FabricError):
    """Invoked chaincode name is not installed on the channel."""


class AccessDeniedError(FabricError):
    """The on-chain ACL denies this identity's org access to an entry."""


class MVCCConflictError(FabricError):
    """Read-set version mismatch detected at commit (phantom/stale read)."""


class LedgerError(FabricError):
    """Corrupt or inconsistent ledger structure (broken hash chain etc.)."""


class OrderingError(FabricError):
    """The ordering service rejected or failed to order a transaction."""


# ---------------------------------------------------------------------------
# Consensus
# ---------------------------------------------------------------------------


class ConsensusError(ReproError):
    """Base class for consensus-protocol failures."""


# ---------------------------------------------------------------------------
# Trust
# ---------------------------------------------------------------------------


class TrustError(ReproError):
    """Base class for trust-engine failures."""


class UntrustedSourceError(TrustError):
    """A submission was rejected because the source's trust score is too low."""


# ---------------------------------------------------------------------------
# Resilience
# ---------------------------------------------------------------------------


class ResilienceError(ReproError):
    """Base class for failures surfaced by the resilience layer."""


class RetryExhaustedError(ResilienceError):
    """An operation kept failing after every allowed retry attempt."""

    def __init__(self, op: str, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"operation {op!r} failed after {attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )
        self.op = op
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(ResilienceError):
    """A circuit breaker is open: the dependency is being given time to heal."""

    def __init__(self, dependency: str, retry_after_s: float) -> None:
        super().__init__(
            f"circuit for {dependency!r} is open; retry in {retry_after_s:.3f}s"
        )
        self.dependency = dependency
        self.retry_after_s = retry_after_s


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class ObservabilityError(ReproError):
    """Invalid use of the metrics/tracing layer (bad buckets, negative
    counter increments, malformed label sets)."""


# ---------------------------------------------------------------------------
# Query
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for query-engine failures."""


class QueryParseError(QueryError):
    """The query text could not be parsed."""


class IntegrityError(QueryError):
    """Retrieved off-chain data does not match its on-chain hash/CID."""


# ---------------------------------------------------------------------------
# Static analysis / sanitizers
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """Invalid use of the analysis tooling (unknown rule id, bad sanitizer
    mode spec, unreadable lint target)."""
