"""The assembled framework: Figure 1 of the paper as one object.

:class:`Framework` stands up the whole system — the HLF-like channel with
all five chaincodes installed, the IPFS cluster, the trust engine, and the
validator pool — in the paper's testbed shape by default (two orgs / two
peers, one orderer, two IPFS nodes, BFT validation). :class:`FrameworkConfig`
exposes every knob the benchmarks sweep.

A read's ``accessed`` event, an access denial's log entry and a source's
trust-score snapshot do not cut blocks of their own: :class:`RiderQueue`
holds them until the next ordering round carries them (see
:mod:`repro.fabric.channel`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from repro.chaincodes import (
    AdminEnrollmentChaincode,
    DataRetrievalChaincode,
    DataUploadChaincode,
    ProvenanceChaincode,
    TrustScoreChaincode,
    UserRegistrationChaincode,
)
from repro.chaincodes.access import AccessControlChaincode
from repro.errors import (
    AccessDeniedError,
    ChaincodeError,
    ChaincodeNotFoundError,
    CircuitOpenError,
    FabricError,
    IdentityError,
    MVCCConflictError,
    TrustError,
    UntrustedSourceError,
)
from repro.fabric import Channel, FabricNetwork, Identity, Role
from repro.fabric.channel import DeferredCall
from repro.fabric.tx import ValidationCode
from repro.index import IndexManager
from repro.ipfs import FixedSizeChunker, IpfsCluster
from repro.ipfs.chunker import Chunker
from repro.obs.metrics import get_registry
from repro.resilience import ResilienceHub, retry
from repro.trust import CORROBORATION_FLOOR, SourceTier, TrustEngine, ValidatorPool
from repro.trust.crossval import Observation

# Queued rider writes force an ordering round of their own at this many,
# when no carrier has come along to take them.
MAX_PENDING_RIDERS = 64

# Per kind of rider write: the chaincode it calls, and the counter a write
# refused on every attempt is recorded in.
_RIDER_KINDS = {
    "record_many": ("provenance", "provenance_write_failures_total"),
    "log_access": ("access_control", "provenance_write_failures_total"),
    "put_score": ("trust_score", "trust_write_failures_total"),
}


@dataclass(frozen=True)
class FrameworkConfig:
    """Deployment knobs; defaults mirror the paper's experimental setup
    (§IV a: one channel, two peer nodes, one orderer, two IPFS nodes)."""

    orgs: tuple[str, ...] = ("org1", "org2")
    peers_per_org: int = 1
    consensus: str = "bft"            # "solo" | "bft"
    n_validators: int = 4
    max_batch_size: int = 1
    n_ipfs_nodes: int = 2
    chunk_size: int = 64 * 1024
    channel_name: str = "traffic"
    # Paper §III: "If discrepancies are detected, the data may require
    # further validation from multiple trusted sources before it is
    # recorded." With strict admission, a low-trust source's submission is
    # rejected up-front when trusted neighbours contradict its observation
    # (cross-validation below repro.trust.CORROBORATION_FLOOR).
    strict_admission: bool = False
    # Seeds the resilience layer's retry jitter (retry/breaker semantics
    # shared by every hot path).
    resilience_seed: int = 0
    # Runtime sanitizer modes: "" disables, "all" enables everything, or a
    # comma list of names from repro.analysis.runtime.MODES (the one place
    # they are listed). Combined with the REPRO_SANITIZE environment
    # variable at build time.
    sanitize: str = ""
    # Durable node state (repro.storage): when enabled, every peer and the
    # orderer journal to a simulated DurableStore (WAL + checkpoints), and
    # crash faults become real amnesia with WAL/checkpoint recovery.
    durability: bool = False
    checkpoint_interval: int = 8   # blocks between checkpoints (0 disables)
    wal_sync_every: int = 1        # fsync the WAL every N blocks


@dataclass(eq=False)
class _Write:
    """One queued rider write; ``flight`` is the call carrying it, if any."""

    identity: Identity
    fn: str
    args: tuple[str, ...]
    flight: DeferredCall | None = None
    attempts: int = 0
    done: bool = False


class RiderQueue:
    """The channel's rider source: writes waiting for the next ordering round.

    Access events (``record_many`` writes, args ``entry_id, action, actor``)
    coalesce into one ``provenance.record_many`` per reader per round; every
    other write is one call of its own, in queue order. An entry's events
    land in the order they were queued: an entry whose earlier event is
    another reader's, or still in flight, waits for a later round rather
    than racing it into an MVCC conflict. A write its round ended without
    goes back to the queue; one refused ``max_attempts`` times is counted
    in its lost-write counter — never dropped silently.
    """

    def __init__(self, channel: Channel, max_attempts: int) -> None:
        self.channel = channel
        self.max_attempts = max_attempts
        self._writes: list[_Write] = []  # not yet settled, oldest first

    def put(self, identity: Identity, fn: str, args: list[str]) -> None:
        self._writes.append(_Write(identity, fn, tuple(args)))
        if self.pending() >= MAX_PENDING_RIDERS:
            try:
                self.channel.flush()
            except FabricError:
                pass  # the writes went back to the queue; a later round retries

    def pending(self) -> int:
        """Writes queued and not in flight."""
        return sum(1 for w in self._writes if w.flight is None)

    def drain(self) -> None:
        """Order rounds until every write has landed or been counted lost.
        An event kept waiting behind another reader's takes a round of its
        own; a round that settles nothing ends the drain, leaving the rest
        queued."""
        while self._writes:
            before = len(self._writes)
            self.channel.flush()
            if len(self._writes) >= before:
                return

    def take(self) -> list[DeferredCall]:
        calls: list[DeferredCall] = []
        events: dict[str, list[_Write]] = {}  # reader -> its events this round
        claimed: dict[str, str] = {}  # entry id -> its reader this round, "" = wait
        for w in self._writes:
            if w.fn != "record_many":
                if w.flight is None:
                    chaincode = _RIDER_KINDS[w.fn][0]
                    calls.append(DeferredCall(w.identity, chaincode, w.fn, w.args, (w,)))
                continue
            entry_id, reader = w.args[0], w.identity.name
            if w.flight is not None or claimed.setdefault(entry_id, reader) != reader:
                claimed[entry_id] = ""
            else:
                events.setdefault(reader, []).append(w)
        for batch in events.values():
            doc = [
                {"entry_id": entry_id, "action": action, "actor": actor, "details": {}}
                for entry_id, action, actor in (w.args for w in batch)
            ]
            args = (json.dumps(doc),)
            calls.append(
                DeferredCall(batch[0].identity, "provenance", "record_many", args, tuple(batch))
            )
        for call in calls:
            for w in call.writes:
                w.flight = call
        return calls

    def settle(self, call: DeferredCall, committed: bool | None) -> None:
        for w in call.writes:
            if w.done:
                continue
            if committed:
                w.done = True  # whichever copy of it committed first
            elif w.flight is call:
                w.flight = None
                if committed is False:
                    w.attempts += 1
                    if w.attempts >= self.max_attempts:
                        w.done = True
                        get_registry().counter(_RIDER_KINDS[w.fn][1]).inc()
        self._writes = [w for w in self._writes if not w.done]


class Framework:
    """Everything the paper's client talks to, wired together."""

    def __init__(self, config: FrameworkConfig | None = None, chunker: Chunker | None = None) -> None:
        self.config = config or FrameworkConfig()
        cfg = self.config
        self.fabric = FabricNetwork()
        # Sanitizers must attach before any invoke (the admin enrollment
        # below is already a checked endorsement+commit when enabled).
        from repro.analysis.runtime import install_sanitizers

        self.channel: Channel = self.fabric.create_channel(
            cfg.channel_name,
            orgs=list(cfg.orgs),
            peers_per_org=cfg.peers_per_org,
            consensus=cfg.consensus,
            max_batch_size=cfg.max_batch_size,
            n_validators=cfg.n_validators,
            consensus_checkpoint_interval=(
                cfg.checkpoint_interval if cfg.durability else 0
            ),
        )
        self.sanitizer = install_sanitizers(self.channel, spec=cfg.sanitize)
        # Durable storage attaches before the first invoke so even the
        # genesis/admin commits are journaled.
        self.durability = None
        if cfg.durability:
            from repro.storage import DurabilityManager

            self.durability = DurabilityManager(
                self.channel,
                checkpoint_interval=cfg.checkpoint_interval,
                wal_sync_every=cfg.wal_sync_every,
            )
        # The block-incremental authenticated secondary index (the one
        # index the query planner routes through) attaches before the first
        # invoke so epoch 0 covers the admin-enrollment block; the
        # durability journal above records each epoch digest into the WAL.
        self.indexing = IndexManager(self.channel)
        for chaincode in (
            AdminEnrollmentChaincode(),
            UserRegistrationChaincode(),
            DataUploadChaincode(),
            DataRetrievalChaincode(),
            ProvenanceChaincode(),
            TrustScoreChaincode(),
            AccessControlChaincode(),
        ):
            self.channel.install_chaincode(chaincode)
        self.ipfs = IpfsCluster(
            n_nodes=cfg.n_ipfs_nodes,
            chunker=chunker or FixedSizeChunker(cfg.chunk_size),
        )
        self.trust = TrustEngine()
        self.resilience = ResilienceHub(seed=cfg.resilience_seed)
        self.riders = RiderQueue(
            self.channel, max_attempts=self.resilience.retry_policy.max_attempts
        )
        self.channel.riders = self.riders
        self.validator_pool = ValidatorPool()
        if cfg.consensus == "bft":
            for name in self.channel.orderer.cluster.replica_names:  # type: ignore[attr-defined]
                self.validator_pool.add_validator(name)
        # The operator identity used for registration bookkeeping.
        self.admin = self.fabric.register_identity("framework-admin", cfg.orgs[0], Role.ADMIN)
        self.channel.invoke(self.admin, "admin_enrollment", "enroll_admin", ["framework-admin"])

    # -- resilient write path ---------------------------------------------------

    # Deterministic request-level failures: every retry would fail the same
    # way, so the resilience layer lets them propagate immediately.
    _NO_RETRY = (
        ChaincodeError,
        ChaincodeNotFoundError,
        AccessDeniedError,
        IdentityError,
        CircuitOpenError,
    )

    def resilient_invoke(
        self,
        identity: Identity,
        chaincode: str,
        fn: str,
        args: list[str],
        op: str | None = None,
        endorsing_orgs: list[str] | None = None,
    ):
        """``channel.invoke`` hardened for a faulty deployment.

        Each attempt passes through the ``"fabric"`` circuit breaker, and
        transient failures — endorsement failures after peer failover,
        ordering hiccups, MVCC read conflicts — are retried with exponential
        backoff and deterministic jitter. Every retry builds a *fresh*
        proposal (new nonce, new tx id), so a transaction stalled inside a
        slow consensus instance can still commit later: the write path is
        at-least-once, and idempotence lives in the chaincodes.
        """
        op = op or f"{chaincode}.{fn}"
        breaker = self.resilience.breaker("fabric")

        def attempt():
            if not breaker.allow():
                raise CircuitOpenError("fabric", breaker.retry_after_s())
            try:
                result = self.channel.invoke(identity, chaincode, fn, args, endorsing_orgs)
            except self._NO_RETRY:
                raise
            except FabricError:
                breaker.record_failure()
                raise
            if result.code is ValidationCode.MVCC_READ_CONFLICT:
                # A conflict is contention, not dependency sickness — retry
                # with a fresh read set but don't count it against fabric.
                raise MVCCConflictError(
                    f"transaction {result.tx_id!r} hit an MVCC read conflict"
                )
            breaker.record_success()
            return result

        return retry(
            attempt,
            policy=self.resilience.retry_policy,
            retryable=(FabricError,),
            should_retry=lambda exc: not isinstance(exc, self._NO_RETRY),
            op=op,
            seed=self.resilience.seed,
        )

    # -- source management (paper Figure 1: users register before submitting) --

    def register_source(
        self, source_id: str, org: str | None = None, tier: SourceTier = SourceTier.UNTRUSTED
    ) -> Identity:
        """Register a data source end to end: MSP identity, on-chain user
        record, and trust-engine tier."""
        org = org or self.config.orgs[0]
        identity = self.fabric.register_identity(source_id, org, Role.CLIENT)
        tier_str = "trusted" if tier is SourceTier.TRUSTED else "untrusted"
        self.resilient_invoke(
            self.admin,
            "user_registration",
            "register_user",
            [source_id, org, tier_str, identity.keypair.public.hex()],
        )
        self.trust.register_source(source_id, tier)
        return identity

    def settle_stores(self, stores: Sequence[tuple[str, str, Observation | None]]) -> None:
        """Settle committed stores, each ``(source_id, tx_id, observation)``,
        against their consensus outcome (paper §III, §III-A): the validators'
        votes on each transaction fold into an untrusted source's score (a
        trusted source's observation joins the cross-validation window), one
        score snapshot per untrusted source is queued, and then the validator
        pool observes each decision. The votes are read from the commit."""
        trust = self.trust
        results = [self.channel.result(tx_id) for _, tx_id, _ in stores]
        scored: dict[str, None] = {}  # untrusted sources, first-seen order
        for (source_id, _, observation), result in zip(stores, results):
            if trust.tier(source_id) is SourceTier.TRUSTED:
                if observation is not None:
                    trust.observe_trusted(observation)
                continue
            ok, votes = result.ok, result.votes
            valid = sum(votes.values())
            # Solo ordering has no votes: the commit counts as one.
            trust.record_validation(
                source_id, ok,
                valid_votes=valid or int(ok),
                invalid_votes=len(votes) - valid or int(not ok),
                observation=observation,
            )
            scored[source_id] = None
        for source_id in scored:
            self.record_trust_on_chain(source_id)
        for result in results:
            votes = result.votes
            if not votes:
                continue
            for name in self.validator_pool.observe_decision(result.ok, votes):
                self.resilient_invoke(
                    self.admin,
                    "trust_score",
                    "remove_validator",
                    [name, "repeatedly acted against consensus"],
                )

    # -- rider writes: each rides the next ordering round ------------------------

    def record_trust_on_chain(self, source_id: str) -> None:
        """Queue a snapshot of the engine's current score for the source.
        Every call is its own ``put_score`` (``score_history`` keeps every
        point), so the on-chain score may lag the engine's but is never
        ahead of it."""
        record = self.trust.chain_record(source_id)
        self.riders.put(self.admin, "put_score", [source_id, json.dumps(record)])

    def record_access(self, identity: Identity, entry_id: str) -> None:
        """Queue the ``accessed`` provenance event of a read served to ``identity``."""
        self.riders.put(identity, "record_many", [entry_id, "accessed", identity.name])

    def log_denied_access(self, identity: Identity, entry_id: str) -> None:
        """Queue the access-log entry of a read the ACL refused ``identity``."""
        self.riders.put(identity, "log_access", [entry_id, "denied"])

    def admit(self, source_id: str, observation: Observation | None = None) -> None:
        """The admission gate of every store, a submit's or an ingested
        item's (paper Figure 1, step ②), before anything is stored: the
        source is registered and the trust engine admits it. Under
        ``strict_admission`` an observation that contradicts trusted
        neighbours (paper §III) is refused too, and scored down. Raises
        :class:`TrustError` for an unregistered source, else
        :class:`UntrustedSourceError`."""
        trust = self.trust
        if not trust.is_registered(source_id):
            raise TrustError(f"source {source_id!r} is not registered")
        decision = trust.admit(source_id)
        if not decision.admitted:
            raise UntrustedSourceError(f"source {source_id!r} rejected: {decision.reason}")
        strict = self.config.strict_admission and decision.requires_corroboration
        if not strict or observation is None:
            return
        neighbours = trust.cross_validator.neighbours(observation)
        if not neighbours:
            return  # no corroboration to be had is no contradiction
        cross = trust.cross_validate(observation)
        if cross >= CORROBORATION_FLOOR:
            return
        trust.record_validation(
            source_id, False,
            valid_votes=0, invalid_votes=len(neighbours),
            observation=observation,
        )
        self.record_trust_on_chain(source_id)
        raise UntrustedSourceError(
            f"source {source_id!r} contradicts {len(neighbours)} trusted "
            f"observation(s) (cross-validation {cross:.2f} < "
            f"{CORROBORATION_FLOOR}); submission refused"
        )
