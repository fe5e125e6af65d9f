"""PBFT-style Byzantine fault tolerant consensus over the simulated network.

This is the consensus the paper's validators run (§III, §III-A): the primary
pre-prepares a client request; every replica independently validates it (the
hook where the validation smart contract executes), broadcasts its PREPARE
vote, and after a 2f-strong prepare quorum broadcasts COMMIT; a request is
*ordered* once 2f+1 commits arrive. Transaction *validity* is decided
separately from ordering, by counting the validators' verdict votes — a
transaction is accepted only if at least 2/3 of replicas voted valid, the
paper's acceptance rule. Invalid transactions are still ordered (so every
replica agrees on what was rejected), mirroring Fabric's validated-flag
commit.

Byzantine behaviour injection (:class:`Behaviour`) covers the faults the
paper's threat model names: crashed validators, silent ones, equivocators
that send conflicting digests, and corrupt validators that endorse invalid
transactions / reject valid ones. With n = 3f+1 replicas the protocol
tolerates f such faults; tests and the ablation bench drive it past that
bound to show where agreement degrades.

A lightweight view-change fires when a replica's commit timer expires:
replicas vote for view v+1, and on 2f+1 votes the new primary re-proposes
pending requests. Two safety rules carry PBFT's cross-view agreement
guarantee without shipping full prepared certificates: an honest replica
never prepares two different digests at one sequence number (even across
views), and view-change votes report the sender's highest prepared seq so
the new primary proposes strictly past every slot the quorum may have
decided. Repeatedly-misbehaving replicas can be reported to a
:class:`repro.trust.ValidatorPool` by the caller via per-decision vote data.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.consensus.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    Prepare,
    PrePrepare,
    ViewChange,
)
from repro.errors import ConsensusError
from repro.net import Message, NetNode, SimNetwork
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span
from repro.util.serialization import canonical_json, once


class Behaviour(str, Enum):
    """Fault model of a single replica."""

    NORMAL = "normal"
    CRASHED = "crashed"          # participates in nothing
    SILENT = "silent"            # receives but never sends
    EQUIVOCATE = "equivocate"    # primary-only: conflicting pre-prepares
    WRONG_DIGEST = "wrong-digest"  # votes on corrupted digests
    ALWAYS_VALID = "always-valid"    # endorses everything, even invalid
    ALWAYS_INVALID = "always-invalid"  # rejects everything, even valid


@dataclass(frozen=True)
class Decision:
    """One slot of the agreed log, identical on every honest replica.

    For a batched request (``request.n_items > 1``) the slot carries one
    verdict *per item*: ``item_accepted[i]`` is item i's 2/3-quorum outcome
    and ``item_votes[replica][i]`` that replica's vote on item i. The
    aggregate ``accepted``/``votes`` fields summarize the whole batch
    (accepted iff every item was accepted) so single-transaction consumers
    keep working unchanged.
    """

    seq: int
    view: int
    request: ClientRequest
    accepted: bool           # >= 2/3 of commit votes said "valid" (every item)
    valid_votes: int
    invalid_votes: int
    votes: dict[str, bool] = field(default_factory=dict, compare=False)
    item_accepted: tuple[bool, ...] = ()
    item_votes: dict[str, tuple[bool, ...]] = field(default_factory=dict, compare=False)


# Start of every replica's decided-log hash chain (the digest of an empty log).
_EMPTY_LOG_LINK = hashlib.sha256(b"pbft-decided-log").digest()
_LINK = len(_EMPTY_LOG_LINK)


def _log_frame(decision: Decision) -> bytes:
    """Fixed framing of what a log digest commits to per decision: 8-byte
    seq, one verdict byte, then the request id (the only variable part)."""
    return (
        decision.seq.to_bytes(8, "big")
        + (b"\x01" if decision.accepted else b"\x00")
        + decision.request.request_id.encode()
    )


def _digest(request: ClientRequest) -> str:
    """What replicas agree on. One request object reaches the primary and
    every replica, so it is digested once; a different object claiming the
    same request id is digested afresh, which is the honest replica's check."""
    return once(
        request,
        "digest",
        lambda: hashlib.sha256(
            canonical_json({"id": request.request_id, "payload": request.payload})
        ).hexdigest(),
    )


@dataclass
class _SlotState:
    pre_prepare: PrePrepare | None = None
    prepares: dict[str, Prepare] = field(default_factory=dict)
    commits: dict[str, Commit] = field(default_factory=dict)
    my_verdict: tuple[bool, ...] | None = None  # one verdict per batch item
    sent_prepare: bool = False
    sent_commit: bool = False
    decided: bool = False
    decision: Decision | None = None


class BftReplica(NetNode):
    """One PBFT replica/validator."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        cluster: "BftCluster",
        behaviour: Behaviour = Behaviour.NORMAL,
    ) -> None:
        super().__init__(name, network)
        self.cluster = cluster
        self.behaviour = behaviour
        self.view = 0
        self.log: list[Decision] = []
        self._slots: dict[tuple[int, int], _SlotState] = {}
        self._next_seq = 0  # primary-only counter
        self._assigned: set[str] = set()  # request ids this primary proposed
        self._decided_seqs: set[int] = set()
        # The decided log in seq order, hash-chained: link i commits to every
        # decision with seq <= _seqs[i], so a prefix digest is a bisect and
        # deciding costs one hash (see _chain_decision). Links are kept
        # end to end in one buffer, _LINK bytes each.
        self._seqs: list[int] = []
        self._by_seq: list[Decision] = []
        self._links = bytearray()
        # seq -> digest this replica has *prepared* (sent COMMIT for). An
        # honest replica never prepares two different digests at one seq —
        # even across views — which is what makes conflicting decisions at
        # the same slot impossible with at most f faults (see
        # _on_pre_prepare's guard).
        self._prepared_digest: dict[int, str] = {}
        self._view_votes: dict[int, dict[str, ViewChange]] = {}
        self._peer_views: dict[str, int] = {}  # highest view each peer has voted in
        self._pending_timeouts: dict[str, bool] = {}
        self._rearms: dict[str, int] = {}  # view changes triggered per request
        self._checkpoint_votes: dict[tuple[int, str], set[str]] = {}
        self.stable_checkpoint = -1  # highest garbage-collected sequence
        if behaviour is Behaviour.CRASHED:
            network.set_node_up(name, False)

    # -- identity helpers ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.cluster.replica_names)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    def is_primary(self) -> bool:
        return self.cluster.primary_for(self.view) == self.name

    def _quorum(self) -> int:
        # 2f+1 of 3f+1: the classic BFT quorum (>= two-thirds).
        return 2 * self.f + 1

    # -- sending with fault model ---------------------------------------------

    def _cast(self, payload: Any, size: int = 512) -> None:
        if self.behaviour in (Behaviour.CRASHED, Behaviour.SILENT):
            return
        self.broadcast(payload, size_bytes=size, kind=type(payload).__name__)
        # Loopback: a replica processes its own votes immediately.
        self._dispatch(payload)

    # -- client entry point -----------------------------------------------------

    def on_request(self, request: ClientRequest) -> None:
        """Handle a client request: primary proposes, others arm a timeout."""
        if not self.is_primary():
            self._arm_timeout(request)
            return
        if self.behaviour in (Behaviour.CRASHED, Behaviour.SILENT):
            return  # a dead primary stalls the slot until view change
        if request.request_id in self._assigned:
            return  # duplicate delivery (clients broadcast requests)
        self._assigned.add(request.request_id)
        seq = self._next_seq
        self._next_seq += 1
        digest = _digest(request)
        if self.behaviour is Behaviour.EQUIVOCATE:
            # Send conflicting digests to different halves of the cluster.
            for i, dst in enumerate(self.cluster.replica_names):
                if dst == self.name:
                    continue
                forged = digest if i % 2 == 0 else digest[::-1]
                self.send(
                    dst,
                    PrePrepare(self.view, seq, forged, request),
                    kind="PrePrepare",
                )
            self._dispatch(PrePrepare(self.view, seq, digest, request))
            return
        self._cast(PrePrepare(self.view, seq, digest, request))

    def _arm_timeout(self, request: ClientRequest) -> None:
        """Expect the request to commit within the view timeout."""
        self._pending_timeouts[request.request_id] = False
        self.after(self.cluster.view_timeout, lambda: self._check_timeout(request))

    def _check_timeout(self, request: ClientRequest) -> None:
        if self._pending_timeouts.get(request.request_id):
            return  # committed in time
        rearms = self._rearms.get(request.request_id, 0)
        if rearms >= self.cluster.max_view_changes:
            # Give up on this request: unbounded re-arming turns one lost
            # request into a permanent view-change storm under message
            # loss. Past the cap, recovery belongs to the client's retry
            # (which re-submits under a fresh request id).
            self._pending_timeouts.pop(request.request_id, None)
            return
        self._rearms[request.request_id] = rearms + 1
        self._start_view_change(self.view + 1, pending=(request,))
        # Re-arm: if the next primary is also faulty, keep rotating views.
        self.after(self.cluster.view_timeout, lambda: self._check_timeout(request))

    # -- message handling -----------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if self.behaviour is Behaviour.CRASHED:
            return
        with profiled("consensus.handle"):
            self._dispatch(msg.payload)

    def _dispatch(self, payload: Any) -> None:
        if isinstance(payload, ClientRequest):
            self.on_request(payload)
        elif isinstance(payload, PrePrepare):
            self._on_pre_prepare(payload)
        elif isinstance(payload, Prepare):
            self._on_prepare(payload)
        elif isinstance(payload, Commit):
            self._on_commit(payload)
        elif isinstance(payload, Checkpoint):
            self._on_checkpoint(payload)
        elif isinstance(payload, ViewChange):
            self._on_view_change(payload)
        elif isinstance(payload, NewView):
            self._on_new_view(payload)

    def _slot(self, view: int, seq: int) -> _SlotState:
        slot = self._slots.get((view, seq))
        if slot is None:
            slot = self._slots[(view, seq)] = _SlotState()
        return slot

    def _verdict_for(self, request: ClientRequest) -> tuple[bool, ...]:
        """Per-item validation verdicts for a (possibly batched) request."""
        n = max(1, request.n_items)
        if self.behaviour is Behaviour.ALWAYS_VALID:
            return (True,) * n
        if self.behaviour is Behaviour.ALWAYS_INVALID:
            return (False,) * n
        # The validation smart contract executes here (paper §III step 6).
        with obs_span("consensus.validate") as sp:
            sp.set_attr("replica", self.name)
            sp.set_attr("request", request.request_id)
            sp.set_attr("items", n)
            with profiled("consensus.validate"):
                verdict = self.cluster.validate(self.name, request)
        if isinstance(verdict, (tuple, list)):
            if len(verdict) != n:
                raise ConsensusError(
                    f"validator returned {len(verdict)} verdicts for a "
                    f"{n}-item request {request.request_id!r}"
                )
            return tuple(bool(v) for v in verdict)
        return (bool(verdict),) * n

    def _vote_digest(self, digest: str) -> str:
        if self.behaviour is Behaviour.WRONG_DIGEST:
            return digest[::-1]
        return digest

    def _on_pre_prepare(self, msg: PrePrepare) -> None:
        self._saw_view(self.cluster.primary_for(msg.view), msg.view)
        if msg.view != self.view:
            return
        # Cross-view safety guard: once prepared at this seq, never help a
        # later view's primary order a *different* request there. A decision
        # needs 2f+1 commits (>= f+1 honest preparers); two conflicting
        # decisions would need an honest replica to prepare both digests at
        # one seq, which this refusal rules out.
        prior = self._prepared_digest.get(msg.seq)
        if prior is not None and prior != msg.digest:
            return
        slot = self._slot(msg.view, msg.seq)
        if slot.pre_prepare is not None and slot.pre_prepare.digest != msg.digest:
            return  # equivocation detected: keep the first, ignore the fork
        # Honest replicas check the primary's digest against the request.
        if self.behaviour is Behaviour.NORMAL and _digest(msg.request) != msg.digest:
            return
        slot.pre_prepare = msg
        if slot.sent_prepare:
            return
        slot.sent_prepare = True
        # Independent validation — "each peer executes the smart contract
        # independently" (paper §III step 6).
        slot.my_verdict = self._verdict_for(msg.request)
        self._cast(
            Prepare(
                msg.view,
                msg.seq,
                self._vote_digest(msg.digest),
                self.name,
                all(slot.my_verdict),
                item_votes=slot.my_verdict,
            )
        )
        self._maybe_progress(msg.view, msg.seq)

    def _on_prepare(self, msg: Prepare) -> None:
        self._saw_view(msg.replica, msg.view)
        if msg.view != self.view:
            return
        slot = self._slot(msg.view, msg.seq)
        slot.prepares[msg.replica] = msg
        self._maybe_progress(msg.view, msg.seq)

    def _on_commit(self, msg: Commit) -> None:
        self._saw_view(msg.replica, msg.view)
        if msg.view != self.view:
            return
        slot = self._slot(msg.view, msg.seq)
        slot.commits[msg.replica] = msg
        if slot.decided and slot.decision is not None and slot.pre_prepare is not None:
            # Straggler commits keep enriching the decision's vote record so
            # accountability (validator flagging) judges every validator that
            # eventually voted, not just the first quorum. The verdict itself
            # never changes — the thresholds are mutually exclusive.
            if msg.digest == slot.pre_prepare.digest:
                slot.decision.votes.setdefault(msg.replica, msg.valid)
                n_items = len(slot.decision.item_accepted) or 1
                slot.decision.item_votes.setdefault(
                    msg.replica, tuple(msg.item_vote(i) for i in range(n_items))
                )
            return
        self._maybe_progress(msg.view, msg.seq)

    def _maybe_progress(self, view: int, seq: int) -> None:
        slot = self._slot(view, seq)
        if slot.pre_prepare is None:
            return
        digest = slot.pre_prepare.digest
        matching_prepares = [p for p in slot.prepares.values() if p.digest == digest]
        # Prepared: pre-prepare + 2f prepares matching the digest (own included).
        if not slot.sent_commit and len(matching_prepares) >= 2 * self.f + 1:
            slot.sent_commit = True
            self._prepared_digest.setdefault(seq, digest)
            n_items = max(1, slot.pre_prepare.request.n_items)
            verdict = slot.my_verdict if slot.my_verdict is not None else (False,) * n_items
            self._cast(
                Commit(
                    view,
                    seq,
                    self._vote_digest(digest),
                    self.name,
                    all(verdict),
                    item_votes=verdict,
                )
            )
        matching_commits = [c for c in slot.commits.values() if c.digest == digest]
        if slot.decided or len(matching_commits) < self._quorum():
            return
        # Validity thresholds are arrival-order independent and mutually
        # exclusive: with n = 3f+1 votes, "valid >= 2f+1" and
        # "invalid >= f+1" cannot both hold (2f+1 + f+1 > n), and honest
        # replicas vote identically, so every replica reaches one verdict —
        # applied independently to each item of a batched request.
        n_items = max(1, slot.pre_prepare.request.n_items)
        item_accepted: list[bool] = []
        for i in range(n_items):
            valid_i = sum(1 for c in matching_commits if c.item_vote(i))
            invalid_i = len(matching_commits) - valid_i
            if valid_i >= self._quorum():
                item_accepted.append(True)
            elif invalid_i >= self.f + 1:
                item_accepted.append(False)
            else:
                return  # ordered but some item's verdict not yet determined
        slot.decided = True
        self._decide(view, seq, slot, matching_commits, tuple(item_accepted))

    def _decide(
        self,
        view: int,
        seq: int,
        slot: _SlotState,
        commits: list[Commit],
        item_accepted: tuple[bool, ...],
    ) -> None:
        if seq in self._decided_seqs:
            return
        self._decided_seqs.add(seq)
        votes = {c.replica: c.valid for c in commits}
        valid = sum(1 for v in votes.values() if v)
        invalid = len(votes) - valid
        request = slot.pre_prepare.request  # type: ignore[union-attr]
        item_votes = {
            c.replica: tuple(c.item_vote(i) for i in range(len(item_accepted)))
            for c in commits
        }
        decision = Decision(
            seq=seq,
            view=view,
            request=request,
            accepted=all(item_accepted),
            valid_votes=valid,
            invalid_votes=invalid,
            votes=votes,
            item_accepted=item_accepted,
            item_votes=item_votes,
        )
        slot.decision = decision
        self.log.append(decision)
        self._chain_decision(decision)
        self._pending_timeouts[request.request_id] = True
        self.cluster.notify_decision(self.name, decision)
        self._maybe_checkpoint()

    # -- checkpointing / log GC -----------------------------------------------

    def _chain_decision(self, decision: Decision) -> None:
        """Extend the log hash chain by one link. A decision arriving below
        the highest decided seq splices in and re-chains from there, so a
        prefix digest stays a function of the *set* of decisions <= seq."""
        pos = bisect_right(self._seqs, decision.seq)
        self._seqs.insert(pos, decision.seq)
        self._by_seq.insert(pos, decision)
        link = self._link(pos)
        del self._links[pos * _LINK :]
        for later in self._by_seq[pos:]:
            link = hashlib.sha256(link + _log_frame(later)).digest()
            self._links += link

    def _link(self, n_decisions: int) -> bytes:
        """The chain link after the first ``n_decisions`` in seq order."""
        if n_decisions == 0:
            return _EMPTY_LOG_LINK
        return bytes(self._links[(n_decisions - 1) * _LINK : n_decisions * _LINK])

    def _log_digest(self, up_to_seq: int) -> str:
        """Digest of the decided log prefix — what checkpoints agree on."""
        return self._link(bisect_right(self._seqs, up_to_seq)).hex()

    def log_frontier(self, up_to_seq: int | None = None) -> tuple[int, str]:
        """Public checkpoint view of the decided log: ``(seq, prefix digest)``.

        With no argument, the frontier is the replica's highest decided
        sequence. The digest is the hash-chain link at ``seq``: replicas that
        decided the same ``(seq, request, verdict)`` set up to ``seq`` agree
        on it, one with a gap differs. Durable-storage checkpoints persist
        this pair so a restarted validator can prove its log prefix is the
        one that was persisted (see :mod:`repro.storage.persistence`).
        """
        if up_to_seq is None:
            up_to_seq = self._seqs[-1] if self._seqs else -1
        return up_to_seq, self._log_digest(up_to_seq)

    def _maybe_checkpoint(self) -> None:
        interval = self.cluster.checkpoint_interval
        if interval <= 0:
            return
        # Checkpoint at the highest multiple-of-interval frontier such that
        # every seq in (stable_checkpoint, frontier] is decided.
        stable = self.stable_checkpoint
        below = bisect_right(self._seqs, stable)
        target = -1
        seq = stable + interval
        while bisect_right(self._seqs, seq) - below == seq - stable:
            target = seq
            seq += interval
        if target < 0:
            return
        digest = self._log_digest(target)
        self._cast(Checkpoint(seq=target, digest=digest, replica=self.name), size=128)

    def _on_checkpoint(self, msg: Checkpoint) -> None:
        if msg.seq <= self.stable_checkpoint:
            return
        votes = self._checkpoint_votes.setdefault((msg.seq, msg.digest), set())
        votes.add(msg.replica)
        if len(votes) >= self._quorum():
            self._gc_to(msg.seq)

    def _gc_to(self, seq: int) -> None:
        """A checkpoint at ``seq`` is stable: discard protocol state for
        every slot at or below it (the decided log itself is kept)."""
        self.stable_checkpoint = max(self.stable_checkpoint, seq)
        for key in [k for k in self._slots if k[1] <= seq]:
            del self._slots[key]
        for prepared_seq in [s for s in self._prepared_digest if s <= seq]:
            del self._prepared_digest[prepared_seq]
        for key in [k for k in self._checkpoint_votes if k[0] <= seq]:
            del self._checkpoint_votes[key]

    # -- view change -------------------------------------------------------------

    def _max_prepared_seq(self) -> int:
        """Highest seq this replica prepared (a stable checkpoint implies
        everything at or below it was decided, hence prepared)."""
        return max(max(self._prepared_digest, default=-1), self.stable_checkpoint)

    def _start_view_change(self, new_view: int, pending: tuple[ClientRequest, ...] = ()) -> None:
        if new_view <= self.view:
            return
        self._cast(
            ViewChange(
                new_view=new_view,
                replica=self.name,
                pending=pending,
                max_seq=self._max_prepared_seq(),
            )
        )

    def _on_view_change(self, msg: ViewChange) -> None:
        if msg.new_view <= self.view:
            return
        votes = self._view_votes.setdefault(msg.new_view, {})
        votes[msg.replica] = msg
        if self.name not in votes and len(votes) > self.f:
            # PBFT's amplification rule: once f+1 peers vouch for a higher
            # view, at least one honest replica timed out — join the view
            # change so desynced views reconverge under message loss. The
            # loopback of our own vote re-enters this handler and runs the
            # quorum check below with the updated vote set.
            self._cast(
                ViewChange(
                    new_view=msg.new_view,
                    replica=self.name,
                    pending=(),
                    max_seq=self._max_prepared_seq(),
                )
            )
            return
        if len(votes) >= self._quorum():
            self._enter_view(msg.new_view)
            if self.is_primary():
                # Continue past every slot the quorum may have decided: any
                # decided seq was prepared by >= f+1 honest replicas, and a
                # 2f+1 vote quorum intersects them — so the reported
                # max_seq frontier covers it and re-proposals land on fresh
                # sequence numbers instead of colliding with old decisions.
                safe_seq = max(vc.max_seq for vc in votes.values())
                self._next_seq = max(self._next_seq, safe_seq + 1)
                self._cast(NewView(new_view=self.view, primary=self.name))
                # Re-propose every pending request reported by the quorum.
                seen: set[str] = set()
                for vc in votes.values():
                    for req in vc.pending:
                        if req.request_id not in seen and req.request_id not in (
                            d.request.request_id for d in self.log
                        ):
                            seen.add(req.request_id)
                            self.on_request(req)

    def _on_new_view(self, msg: NewView) -> None:
        if msg.new_view > self.view:
            self._enter_view(msg.new_view)

    def _saw_view(self, peer: str, view: int) -> None:
        """View synchronisation: ``peer`` sent a protocol vote in ``view``.

        A replica left behind by a view change it missed (its votes were
        dropped, or it was partitioned) ignores every message of the later
        view and is ignored in turn — and a primary never arms a timeout, so
        a 2/2 split never gathers the f+1 view-change votes that would
        reunite it. Once f+1 distinct peers are ahead, at least one of them
        is honest and really works there, so follow to the highest view f+1
        of them have reached. Fewer than f+1 (all possibly faulty) move
        nobody, whatever view they claim.
        """
        if view <= self._peer_views.get(peer, -1):
            return  # the common case: nothing new from this peer
        if peer == self.name or peer not in self.cluster.replicas:
            return
        self._peer_views[peer] = view
        ahead = sorted((v for v in self._peer_views.values() if v > self.view), reverse=True)
        if len(ahead) > self.f:
            self._enter_view(ahead[self.f])

    def _enter_view(self, view: int) -> None:
        self.view = view
        # Primary's sequence counter continues past anything it has decided.
        if self._seqs:
            self._next_seq = max(self._next_seq, self._seqs[-1] + 1)


class BftCluster:
    """Builds and drives a set of PBFT replicas on one SimNetwork.

    ``validator(replica_name, request)`` is the per-replica validation hook —
    the framework plugs chaincode execution in here. For batched requests
    (``n_items > 1``) it may return a sequence of per-item verdicts; a bare
    bool applies to every item. ``on_decision`` fires once per
    (replica, decision).
    """

    def __init__(
        self,
        n_replicas: int = 4,
        network: SimNetwork | None = None,
        validator: Callable[[str, ClientRequest], bool] | None = None,
        behaviours: dict[str, Behaviour] | None = None,
        view_timeout: float = 5.0,
        on_decision: Callable[[str, Decision], None] | None = None,
        checkpoint_interval: int = 0,
        max_view_changes: int = 8,
    ) -> None:
        if n_replicas < 4:
            raise ConsensusError("PBFT needs n >= 4 (n = 3f+1, f >= 1)")
        self.network = network or SimNetwork()
        self.replica_names = [f"validator-{i}" for i in range(n_replicas)]
        self._validator = validator or (lambda name, req: True)
        self.view_timeout = view_timeout
        self.max_view_changes = max_view_changes
        self.checkpoint_interval = checkpoint_interval
        self._on_decision = on_decision
        behaviours = behaviours or {}
        self.replicas: dict[str, BftReplica] = {
            name: BftReplica(
                name, self.network, self, behaviours.get(name, Behaviour.NORMAL)
            )
            for name in self.replica_names
        }
        self._client_seq = 0

    # -- cluster facts ---------------------------------------------------------

    @property
    def f(self) -> int:
        return (len(self.replica_names) - 1) // 3

    def primary_for(self, view: int) -> str:
        return self.replica_names[view % len(self.replica_names)]

    def validate(self, replica: str, request: ClientRequest):
        return self._validator(replica, request)

    def notify_decision(self, replica: str, decision: Decision) -> None:
        if self._on_decision is not None:
            self._on_decision(replica, decision)

    # -- driving ------------------------------------------------------------------

    def submit(
        self, payload: Any, request_id: str | None = None, n_items: int = 1
    ) -> ClientRequest:
        """Inject a client request at a non-primary replica (worst case path).

        ``n_items > 1`` submits a batched request: one consensus instance
        whose replicas vote per item (agreement amortized over the batch).
        """
        if request_id is None:
            request_id = f"req-{self._client_seq}"
            self._client_seq += 1
        request = ClientRequest(request_id=request_id, payload=payload, n_items=n_items)
        # Clients broadcast the request to every replica (the PBFT variant
        # with client broadcast): the primary proposes it, the others arm
        # commit timeouts so a dead primary triggers a view change.
        with obs_span("consensus.round") as sp:
            sp.set_attr("request", request.request_id)
            sp.set_attr("items", n_items)
            for replica in self.replicas.values():
                if self.network.is_up(replica.name):
                    with profiled("consensus.handle"):
                        replica.on_request(request)
        return request

    def run(self, until: float | None = None) -> None:
        if self.network.pending() == 0:
            self.network.run(until=until)  # nothing queued: no span noise
            return
        with obs_span("consensus.run") as sp:
            sp.set_attr("events", self.network.run(until=until))

    # -- inspection ------------------------------------------------------------------

    def honest_replicas(self) -> list[BftReplica]:
        return [
            r
            for r in self.replicas.values()
            if r.behaviour in (Behaviour.NORMAL, Behaviour.ALWAYS_VALID, Behaviour.ALWAYS_INVALID)
            and self.network.is_up(r.name)
        ]

    def decided_log(self) -> list[Decision]:
        """The agreed log, taken from any honest NORMAL replica with the
        longest log (all honest logs must be prefix-consistent)."""
        normals = [
            r
            for r in self.replicas.values()
            if r.behaviour is Behaviour.NORMAL and self.network.is_up(r.name)
        ]
        if not normals:
            raise ConsensusError("no honest replica available")
        best = max(normals, key=lambda r: len(r.log))
        return sorted(best.log, key=lambda d: d.seq)

    def log_prefix_consistent(self) -> bool:
        """PBFT's safety property, checked directly: no two live honest
        NORMAL replicas may have decided the same sequence number
        differently — different request, or different verdicts. A replica
        can legitimately be *missing* a seq (it was down or partitioned
        when that slot decided), so logs are compared per shared seq, not
        positionally. Used by the consensus sanitizer (SAN306)."""
        by_seq: dict[int, tuple] = {}
        for replica in self.replicas.values():
            if replica.behaviour is not Behaviour.NORMAL or not self.network.is_up(replica.name):
                continue
            for d in replica.log:
                key = (d.request.request_id, d.accepted, d.item_accepted)
                if by_seq.setdefault(d.seq, key) != key:
                    return False
        return True

    def agreement_reached(self, request_id: str) -> bool:
        """Did every live honest replica decide this request identically?"""
        decisions = []
        for replica in self.replicas.values():
            if replica.behaviour is not Behaviour.NORMAL or not self.network.is_up(replica.name):
                continue
            mine = [d for d in replica.log if d.request.request_id == request_id]
            if not mine:
                return False
            decisions.append((mine[0].seq, mine[0].accepted))
        return len(set(decisions)) == 1 and bool(decisions)
