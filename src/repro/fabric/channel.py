"""Channels and the FabricNetwork: the client-facing orchestration layer.

A :class:`Channel` wires peers to an ordering service and exposes the two
operations the paper's client performs:

* :meth:`Channel.invoke` — the full execute-order-validate write path:
  sign a proposal, collect endorsements from the required orgs, verify the
  endorsers simulated identically, submit to ordering, and return the
  commit outcome once the block lands (steps ②–⑦ of the paper's Figure 1).
* :meth:`Channel.query` — a read against one peer's state with no ordering
  and no consensus, the paper's observation that "reading from the
  blockchain does not incur gas costs".

:class:`FabricNetwork` assembles the pieces — MSP registry, channels,
orderers — the way the paper's testbed stands up its HLF network (one
channel, two peers, one orderer).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import (
    AccessDeniedError,
    ChaincodeError,
    ChaincodeNotFoundError,
    EndorsementAttempt,
    EndorsementError,
    FabricError,
    IdentityError,
)
from repro.fabric.chaincode import Chaincode, ChaincodeDefinition
from repro.fabric.events import EventHub
from repro.fabric.identity import Identity, Role
from repro.fabric.ledger import Block
from repro.fabric.msp import MSPRegistry
from repro.fabric.orderer import BftOrderer, Orderer, SoloOrderer
from repro.fabric.peer import Peer
from repro.fabric.privatedata import CollectionRegistry, PrivateCollection
from repro.fabric.policy import AnyOf, Policy
from repro.fabric.tx import (
    ProposalResponse,
    Transaction,
    TxProposal,
    ValidationCode,
)
from repro.obs.metrics import get_registry
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span
from repro.util.clock import Clock, WallClock


@dataclass(frozen=True)
class TxResult:
    """Commit outcome returned to the client."""

    tx_id: str
    code: ValidationCode
    response: str
    block_number: int

    @property
    def ok(self) -> bool:
        return self.code is ValidationCode.VALID


@dataclass
class ChannelStats:
    invokes: int = 0
    queries: int = 0
    endorsement_rtts: int = 0


class Channel:
    """One ledger shared by a set of peers behind one ordering service."""

    def __init__(
        self,
        name: str,
        msp_registry: MSPRegistry,
        orderer: Orderer,
        clock: Clock | None = None,
    ) -> None:
        self.name = name
        self.msp_registry = msp_registry
        self.orderer = orderer
        self.clock = clock or WallClock()
        self.peers: dict[str, Peer] = {}
        self.collections = CollectionRegistry()
        self.events = EventHub()
        self.stats = ChannelStats()
        self.rejected_by_block: dict[int, frozenset[str]] = {}
        # Runtime sanitizer (repro.analysis); propagated to joining peers.
        self.sanitizer = None
        # Index manager (repro.index.IndexManager); equips joining peers.
        self.indexing = None
        self._definitions: list[ChaincodeDefinition] = []
        self._results: dict[str, TxResult] = {}
        self._nonce = itertools.count()
        orderer.register_delivery(self._deliver_block)

    # -- topology ---------------------------------------------------------------

    def join_peer(self, peer: Peer) -> None:
        if peer.name in self.peers:
            raise FabricError(f"peer {peer.name!r} already joined channel {self.name!r}")
        self.peers[peer.name] = peer
        if self.sanitizer is not None:
            peer.sanitizer = self.sanitizer
        if self.indexing is not None:
            self.indexing.attach(peer)
        for definition in self._definitions:
            peer.install_chaincode(definition)

    def install_chaincode(self, chaincode: Chaincode, policy: Policy | None = None) -> None:
        orgs = sorted({p.org for p in self.peers.values()})
        definition = ChaincodeDefinition(
            chaincode=chaincode, policy=policy or AnyOf(*orgs)
        )
        self._definitions.append(definition)
        for peer in self.peers.values():
            peer.install_chaincode(definition)

    def define_collection(self, name: str, member_orgs: list[str]) -> PrivateCollection:
        """Define a private data collection; member-org peers will hold the
        plaintext, everyone else only the on-chain hashes."""
        collection = PrivateCollection(name=name, member_orgs=frozenset(member_orgs))
        self.collections.define(collection)
        return collection

    def update_chaincode_policy(self, chaincode: str, policy: Policy) -> None:
        """Replace a chaincode's endorsement policy (Fabric's chaincode
        definition update — required e.g. after admitting a new org)."""
        for definition in self._definitions:
            if definition.chaincode.name == chaincode:
                definition.policy = policy
                return
        raise FabricError(f"chaincode {chaincode!r} not installed on {self.name!r}")

    def org_peers(self, org: str) -> list[Peer]:
        return [p for p in self.peers.values() if p.org == org and p.online]

    def chaincode_names(self) -> list[str]:
        """Names of the chaincodes installed on this channel (sorted)."""
        return sorted(d.chaincode.name for d in self._definitions)

    # -- block delivery -------------------------------------------------------------

    def _deliver_block(self, block: Block, consensus_rejected: frozenset[str]) -> None:
        with obs_span("fabric.deliver") as sp:
            sp.set_attr("block", block.number)
            sp.set_attr("txs", len(block.transactions))
            with profiled("fabric.deliver"):
                self._deliver_block_inner(block, consensus_rejected)

    def _deliver_block_inner(self, block: Block, consensus_rejected: frozenset[str]) -> None:
        self.rejected_by_block[block.number] = consensus_rejected
        annotated: Block | None = None
        for peer in self.peers.values():
            if not peer.online:
                continue  # it will catch up via gossip anti-entropy
            if peer.ledger.height != block.number:
                continue  # revived mid-run behind the chain — same remedy
            committed = peer.commit_block(block, consensus_rejected=consensus_rejected)
            if annotated is None:
                annotated = committed
                self.events.publish_block(peer.name, committed)
        if annotated is None:
            raise FabricError("no online peer to commit the block")
        for i, tx in enumerate(annotated.transactions):
            self._results[tx.tx_id] = TxResult(
                tx_id=tx.tx_id,
                code=annotated.validation_codes[i],
                response=tx.response,
                block_number=annotated.number,
            )

    # -- client write path -------------------------------------------------------------

    def _build_proposal(
        self,
        identity: Identity,
        chaincode: str,
        fn: str,
        args: list[str],
        transient: dict[str, bytes] | None = None,
    ) -> TxProposal:
        creator = identity.info()
        nonce = f"{self.name}:{next(self._nonce)}".encode()
        tx_id = TxProposal.make_tx_id(creator, nonce)
        return TxProposal(
            tx_id=tx_id,
            channel=self.name,
            chaincode=chaincode,
            fn=fn,
            args=tuple(args),
            creator=creator,
            timestamp=self.clock.now(),
            transient=tuple(sorted((transient or {}).items())),
        ).signed_by(identity)

    def _endorsing_orgs(self, chaincode: str, endorsing_orgs: list[str] | None) -> list[str]:
        definition = next(
            (d for d in self._definitions if d.chaincode.name == chaincode), None
        )
        if definition is None:
            raise FabricError(f"chaincode {chaincode!r} not installed on {self.name!r}")
        return endorsing_orgs or sorted(definition.policy.required_orgs())

    def endorse(
        self,
        identity: Identity,
        chaincode: str,
        fn: str,
        args: list[str],
        endorsing_orgs: list[str] | None = None,
        transient: dict[str, bytes] | None = None,
    ) -> tuple[TxProposal, list[ProposalResponse]]:
        """Run the endorsement phase only (exposed for tests and benches).

        Per org, surviving peers are tried in order — a peer that raises
        (crashed mid-request, stale liveness flag) is skipped and the next
        peer of the same org endorses instead. Only when *no* org produced
        a response is :class:`~repro.errors.EndorsementError` raised,
        carrying the full :class:`~repro.errors.EndorsementAttempt` trail so
        callers can tell offline peers from chaincode-level failures.
        """
        with obs_span("fabric.endorse") as sp:
            sp.set_attr("chaincode", chaincode)
            sp.set_attr("fn", fn)
            with profiled("endorse.propose"):
                proposal = self._build_proposal(identity, chaincode, fn, args, transient)
            orgs = self._endorsing_orgs(chaincode, endorsing_orgs)
            responses: list[ProposalResponse] = []
            attempts: list[EndorsementAttempt] = []
            height = self.height()
            for org in orgs:
                # Discovery-service ranking: a peer still catching up after
                # a restart would endorse against stale state and diverge
                # the rwset, so peers at chain height are tried first.
                candidates = sorted(
                    self.org_peers(org), key=lambda p: p.ledger.height != height
                )
                if not candidates:
                    attempts.append(EndorsementAttempt(peer="", org=org, kind="no_peers"))
                    continue
                for i, peer in enumerate(candidates):
                    try:
                        response = peer.endorse(proposal)
                    except (
                        IdentityError,
                        AccessDeniedError,
                        ChaincodeError,
                        ChaincodeNotFoundError,
                    ):
                        # Request-level failure: every peer would reject it
                        # identically, so failover would only mask the cause.
                        raise
                    except FabricError as exc:
                        attempts.append(
                            EndorsementAttempt(
                                peer=peer.name,
                                org=org,
                                kind=type(exc).__name__,
                                error=str(exc),
                            )
                        )
                        continue
                    if i > 0:
                        get_registry().counter(
                            "endorse_failover_total", {"org": org}
                        ).inc()
                    responses.append(response)
                    self.stats.endorsement_rtts += 1
                    break
            if not responses:
                raise EndorsementError(
                    f"no online peers available for orgs {orgs}", attempts
                )
            sp.set_attr("endorsements", len(responses))
            return proposal, responses

    def assemble(
        self, proposal: TxProposal, responses: list[ProposalResponse]
    ) -> Transaction:
        """Client-side checks + transaction assembly."""
        with profiled("fabric.assemble"):
            failures = [r for r in responses if not r.success]
            if failures:
                raise ChaincodeError(failures[0].message)
            digests = {r.rwset.digest() for r in responses}
            if len(digests) != 1:
                raise EndorsementError(
                    "endorsers produced divergent read/write sets "
                    "(non-deterministic chaincode or state skew)"
                )
            return Transaction.from_responses(proposal, responses)

    def invoke(
        self,
        identity: Identity,
        chaincode: str,
        fn: str,
        args: list[str],
        endorsing_orgs: list[str] | None = None,
        transient: dict[str, bytes] | None = None,
    ) -> TxResult:
        """Full write path; blocks until the transaction commits.

        ``submit`` on the orderer is asynchronous (it only queues the
        transaction), so this method flushes the orderer — cutting a block
        that may be smaller than ``max_batch_size`` — when the result is
        not already committed. High-throughput writers should prefer
        :meth:`invoke_async` + one :meth:`flush` per batch so consensus
        amortizes over full blocks.
        """
        with obs_span("fabric.invoke") as sp:
            sp.set_attr("chaincode", chaincode)
            sp.set_attr("fn", fn)
            tx_id = self.invoke_async(identity, chaincode, fn, args, endorsing_orgs, transient)
            sp.set_attr("tx_id", tx_id)
            if tx_id not in self._results:
                self.orderer.flush()
            try:
                return self._results[tx_id]
            except KeyError:
                raise FabricError(
                    f"transaction {tx_id!r} did not commit after flush"
                ) from None

    def invoke_async(
        self,
        identity: Identity,
        chaincode: str,
        fn: str,
        args: list[str],
        endorsing_orgs: list[str] | None = None,
        transient: dict[str, bytes] | None = None,
    ) -> str:
        proposal, responses = self.endorse(
            identity, chaincode, fn, args, endorsing_orgs, transient
        )
        tx = self.assemble(proposal, responses)
        self.orderer.submit(tx)
        self.stats.invokes += 1
        return tx.tx_id

    def flush(self) -> None:
        with obs_span("fabric.flush"):
            self.orderer.flush()

    def result(self, tx_id: str) -> TxResult:
        try:
            return self._results[tx_id]
        except KeyError:
            raise FabricError(f"no commit result for {tx_id!r}") from None

    # -- client read path -------------------------------------------------------------

    def query(
        self,
        identity: Identity,
        chaincode: str,
        fn: str,
        args: list[str],
        peer: str | None = None,
    ) -> str:
        """Read-only chaincode execution on one peer; no ordering.

        With no explicit ``peer``, online peers are tried in order — a peer
        that fails mid-query is skipped and the next one answers. Request-
        level errors (bad identity, unknown chaincode, chaincode failure)
        propagate immediately: every peer would reject them the same way.
        """
        with obs_span("fabric.query") as sp:
            sp.set_attr("chaincode", chaincode)
            sp.set_attr("fn", fn)
            proposal = self._build_proposal(identity, chaincode, fn, args)
            self.stats.queries += 1
            if peer is not None:
                return self.peers[peer].query(proposal)
            online = [p for p in self.peers.values() if p.online]
            if not online:
                raise FabricError("no online peer to query")
            last_error: FabricError | None = None
            for i, target in enumerate(online):
                try:
                    result = target.query(proposal)
                except (
                    IdentityError,
                    AccessDeniedError,
                    ChaincodeError,
                    ChaincodeNotFoundError,
                ):
                    raise
                except FabricError as exc:
                    last_error = exc
                    continue
                if i > 0:
                    get_registry().counter("query_failover_total").inc()
                return result
            raise FabricError("every online peer failed the query") from last_error

    # -- maintenance ------------------------------------------------------------------

    def anti_entropy(self) -> int:
        """Catch lagging (recently restarted) peers up via gossip."""
        from repro.fabric.gossip import anti_entropy

        return anti_entropy(list(self.peers.values()), self.rejected_by_block)

    def height(self) -> int:
        online = [p for p in self.peers.values() if p.online]
        return max((p.ledger.height for p in online), default=0)


class FabricNetwork:
    """Top-level factory: orgs, identities, channels, orderers.

    ``create_channel(..., consensus="solo" | "bft")`` reproduces the
    paper's deployment shape; peers default to two (one per org) as in the
    paper's testbed.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or WallClock()
        self.msp_registry = MSPRegistry()
        self.channels: dict[str, Channel] = {}
        self._peer_counter = itertools.count()

    # -- identities --------------------------------------------------------------

    def add_org(self, org: str) -> None:
        self.msp_registry.add_org(org)

    def register_identity(
        self, name: str, org: str, role: Role = Role.CLIENT
    ) -> Identity:
        if org not in self.msp_registry.orgs():
            self.add_org(org)
        identity = Identity.create(name, org, role)
        self.msp_registry.enroll(identity)
        return identity

    # -- channels ------------------------------------------------------------------

    def create_channel(
        self,
        name: str,
        orgs: list[str],
        peers_per_org: int = 1,
        consensus: str = "solo",
        max_batch_size: int = 1,
        n_validators: int = 4,
        bft_behaviours=None,
        consensus_checkpoint_interval: int = 0,
    ) -> Channel:
        if name in self.channels:
            raise FabricError(f"channel {name!r} already exists")
        if consensus == "solo":
            orderer: Orderer = SoloOrderer(max_batch_size=max_batch_size, clock=self.clock)
        elif consensus == "bft":
            orderer = BftOrderer(
                n_validators=n_validators,
                max_batch_size=max_batch_size,
                clock=self.clock,
                behaviours=bft_behaviours,
                checkpoint_interval=consensus_checkpoint_interval,
            )
        else:
            raise FabricError(f"unknown consensus type {consensus!r}")
        channel = Channel(name, self.msp_registry, orderer, clock=self.clock)
        for org in orgs:
            if org not in self.msp_registry.orgs():
                self.add_org(org)
            for _ in range(peers_per_org):
                idx = next(self._peer_counter)
                peer_identity = self.register_identity(
                    f"peer{idx}.{org}", org, role=Role.PEER
                )
                channel.join_peer(
                    Peer(
                        f"peer{idx}.{org}",
                        peer_identity,
                        self.msp_registry,
                        collections=channel.collections,
                    )
                )
        self.channels[name] = channel
        return channel

    def channel(self, name: str) -> Channel:
        try:
            return self.channels[name]
        except KeyError:
            raise FabricError(f"unknown channel {name!r}") from None

    def add_org_to_channel(self, channel_name: str, org: str, peers: int = 1) -> list[Peer]:
        """Admit a new organization at runtime: register its MSP, stand up
        its peers (with the channel's chaincodes and collections), and
        catch them up to the current chain via gossip anti-entropy —
        Fabric's channel-config-update flow, in one call."""
        channel = self.channel(channel_name)
        if org not in self.msp_registry.orgs():
            self.add_org(org)
        joined: list[Peer] = []
        for _ in range(peers):
            idx = next(self._peer_counter)
            identity = self.register_identity(f"peer{idx}.{org}", org, role=Role.PEER)
            peer = Peer(
                f"peer{idx}.{org}",
                identity,
                self.msp_registry,
                collections=channel.collections,
            )
            channel.join_peer(peer)
            joined.append(peer)
        channel.anti_entropy()
        return joined
