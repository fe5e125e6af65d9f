"""Durability manager: WAL + checkpoints per node, and real crash recovery.

One :class:`~repro.storage.durable.DurableStore` per peer (plus one for
the ordering service) holds:

* ``wal`` — one framed canonical-JSON record per committed block
  (``{"type": "block", "block": ..., "rejected": [...]}``), synced every
  ``wal_sync_every`` blocks — so a crash can lose at most the unsynced
  suffix;
* ``checkpoint`` — the peer's :class:`~repro.fabric.snapshot.Snapshot`
  at the last checkpoint height (every ``checkpoint_interval`` blocks),
  written atomically; the WAL is truncated once the checkpoint covers it;
* ``private`` — the peer's private-collection side databases at the same
  height (snapshots cover only public state);
* ``index`` — the peer's :class:`~repro.index.PeerIndex` as
  ``to_lines()``, newline-joined;
* ``frontier-<replica>`` — each PBFT validator's decided-log frontier
  ``{seq, stable, digest}``, so a restarted validator set can prove its
  log prefix matches what was persisted.

A checkpoint file is whole, but writing it costs what changed: the snapshot
and the index are joins of canonical-JSON lines that the world state and the
index keep per key / posting / block and re-serialise only after a change
(``WorldState.snapshot_lines``, ``PeerIndex.to_lines``); only the small
headers and the private sidecar are serialised every time. The frontiers are
written once per ledger height, by the first peer to checkpoint there, and
the orderer's own log (``submit`` / ``batch`` records) is compacted at the
same moment to the records whose transactions are not yet on a ledger — so
it holds what no checkpoint covers yet rather than every batch ever cut.

Recovery (:meth:`DurabilityManager.recover_peer`) tries, in order:

1. **WAL replay** — adopt the checkpoint snapshot (digest-verified by
   :func:`~repro.fabric.snapshot.bootstrap_peer`), then re-commit every
   WAL block through the normal validation path; a torn tail is dropped.
2. **Verified state transfer** — on WAL corruption or an unusable
   checkpoint: take a snapshot from the best online donor, check that
   *every* online peer at that height agrees on the state digest and
   head hash (:func:`repro.fabric.audit.check_peers`, the replica-parity
   check every audit runs), adopt it, and catch up via block delivery.
3. **Full resync** — last resort with no usable donor snapshot: rejoin
   empty and let gossip deliver the chain from genesis.

Whatever the path, recovery ends by rebuilding the node's durable state
(fresh checkpoint, truncated WAL), emitting a ``recovery`` span plus
metrics, and handing the peer to the SAN307 sanitizer check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    DurabilityError,
    EncodingError,
    LedgerError,
    RecoveryError,
    WalCorruptionError,
)
from repro.fabric.audit import check_peers
from repro.fabric.gossip import sync_peer
from repro.fabric.ledger import Block, BlockStore
from repro.fabric.privatedata import PrivateStateStore
from repro.fabric.snapshot import (
    Snapshot,
    adopt_snapshot,
    bootstrap_peer,
    take_snapshot,
)
from repro.fabric.worldstate import Version, WorldState
from repro.obs.metrics import get_registry
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span
from repro.storage.codec import block_from_doc, block_to_doc, tx_to_doc
from repro.storage.durable import DurableStore
from repro.util.serialization import canonical_json, from_canonical_json

WAL_LOG = "wal"
CHECKPOINT_FILE = "checkpoint"
PRIVATE_FILE = "private"
INDEX_FILE = "index"


@dataclass
class DurabilityStats:
    """Cumulative counters, mirrored into the metrics registry."""

    wal_records: int = 0
    checkpoints: int = 0
    recoveries: int = 0
    replayed_blocks: int = 0
    caught_up_blocks: int = 0
    lag_blocks: int = 0
    state_transfers: int = 0
    full_resyncs: int = 0
    wal_damage: int = 0
    orderer_dropped_txs: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class RecoveryOutcome:
    """What one recovery did — deterministic, fingerprint-safe."""

    node: str
    kind: str  # "wal_replay" | "state_transfer" | "full_resync"
    wal_damage: str  # "" | "torn_tail" | "corrupt" | "invalid"
    checkpoint_height: int
    replayed_blocks: int
    caught_up_blocks: int
    lag_blocks: int
    height: int

    def detail(self) -> str:
        base = (
            f"{self.kind} ckpt={self.checkpoint_height} "
            f"replayed={self.replayed_blocks} caught_up={self.caught_up_blocks} "
            f"lag={self.lag_blocks} height={self.height}"
        )
        return base + (f" damage={self.wal_damage}" if self.wal_damage else "")


def _record_tx_ids(doc: dict) -> list[str]:
    """Transaction ids an orderer-log record (``submit`` / ``batch``) is about."""
    if doc.get("type") == "batch":
        return [tx["proposal"]["tx_id"] for tx in doc["txs"]]
    return [doc["tx_id"]]


class DurabilityManager:
    """Owns every node's simulated disk and drives crash recovery."""

    def __init__(
        self,
        channel,
        checkpoint_interval: int = 8,
        wal_sync_every: int = 1,
    ) -> None:
        if checkpoint_interval < 0 or wal_sync_every < 1:
            raise DurabilityError(
                "checkpoint_interval must be >= 0 and wal_sync_every >= 1"
            )
        self.channel = channel
        self.checkpoint_interval = checkpoint_interval
        self.wal_sync_every = wal_sync_every
        self.stores: dict[str, DurableStore] = {
            name: DurableStore() for name in channel.peers
        }
        self.orderer_store = DurableStore()
        self.stats = DurabilityStats()
        self.recovery_log: list[RecoveryOutcome] = []
        self._replaying: set[str] = set()
        # Ledger height of the last checkpoint that also covered the
        # ordering service (validator frontiers + orderer-log compaction).
        self._orderer_checkpoint_height = -1
        for peer in channel.peers.values():
            peer.journal = self
        if hasattr(channel.orderer, "journal"):
            channel.orderer.journal = self

    # -- journaling (called from the commit / ordering paths) -----------------

    def record_commit(self, peer, block, consensus_rejected) -> None:
        """Append one committed block to the peer's WAL; checkpoint on cadence."""
        if peer.name in self._replaying:
            return
        store = self.stores.get(peer.name)
        if store is None:
            return
        # The index epoch digest rides in the WAL record (the sim's "block
        # metadata"), so replay can prove the rebuilt index matches what
        # was committed — and a doctored WAL fails over to state transfer.
        index_epoch = None
        if getattr(peer, "index", None) is not None:
            index_epoch = peer.index.epochs.get(block.number)
        with profiled("storage.wal"):
            store.append(
                WAL_LOG,
                canonical_json(
                    {
                        "type": "block",
                        "block": block_to_doc(block),
                        "rejected": sorted(consensus_rejected or ()),
                        "index_epoch": index_epoch,
                    }
                ),
            )
            self.stats.wal_records += 1
            height = peer.ledger.height
            if height % self.wal_sync_every == 0:
                store.sync()
        if self.checkpoint_interval > 0 and height % self.checkpoint_interval == 0:
            self.checkpoint_peer(peer)

    def record_submit(self, tx) -> None:
        """A tx entered the orderer queue — deliberately *not* synced: queued
        but uncut transactions are exactly what an orderer crash loses."""
        with profiled("storage.wal"):
            self.orderer_store.append(
                WAL_LOG, canonical_json({"type": "submit", "tx_id": tx.tx_id})
            )

    def record_batch(self, request_id: str, txs) -> None:
        """A batch went to consensus: persist it (synced) with full tx docs."""
        with profiled("storage.wal"):
            self.orderer_store.append(
                WAL_LOG,
                canonical_json(
                    {
                        "type": "batch",
                        "request_id": request_id,
                        "txs": [tx_to_doc(tx) for tx in txs],
                    }
                ),
            )
            self.orderer_store.sync()

    # -- checkpoints -----------------------------------------------------------

    def checkpoint_peer(self, peer) -> None:
        """Atomic snapshot of ledger/world/private state; WAL truncated after.

        The snapshot and index files are joins of lines their owners cache
        per world key / posting / block, so this costs what changed since
        the peer's previous checkpoint. The ordering service's share — the
        validator frontiers and the orderer-log compaction — is done by the
        first peer to checkpoint at each ledger height: every peer's
        checkpoint at one height would persist the same validator logs.
        """
        store = self.stores.get(peer.name)
        if store is None:
            return
        with profiled("storage.checkpoint"):
            snapshot = take_snapshot(peer, self.channel.name)
            store.write_file(CHECKPOINT_FILE, snapshot.to_bytes())
            store.write_file(PRIVATE_FILE, canonical_json(self._private_doc(peer)))
            if getattr(peer, "index", None) is not None:
                store.write_file(INDEX_FILE, b"\n".join(peer.index.to_lines()))
            store.truncate_log(WAL_LOG)
            store.sync()
        self.stats.checkpoints += 1
        get_registry().counter("checkpoints_total").inc()
        if peer.ledger.height != self._orderer_checkpoint_height:
            self._orderer_checkpoint_height = peer.ledger.height
            self.checkpoint_validators()
            self._compact_orderer_log()

    def checkpoint_validators(self) -> int:
        """Persist every PBFT replica's decided-log frontier."""
        cluster = getattr(self.channel.orderer, "cluster", None)
        if cluster is None:
            return 0
        for name in cluster.replica_names:
            seq, digest = cluster.replicas[name].log_frontier()
            self.orderer_store.write_file(
                f"frontier-{name}",
                canonical_json(
                    {
                        "replica": name,
                        "seq": seq,
                        "stable": cluster.replicas[name].stable_checkpoint,
                        "digest": digest,
                    }
                ),
            )
        self.orderer_store.sync()
        return len(cluster.replica_names)

    def _compact_orderer_log(self) -> None:
        """Rewrite the orderer log without the records whose transactions
        are all on a ledger already. What stays is what an orderer restart
        would still have to drive: submitted or cut, not yet committed.

        Every peer's ledger is asked, not only the checkpointing one's: a
        peer that recovered by state transfer indexes no transaction below
        its snapshot height, and would keep those records for good."""
        store = self.orderer_store
        store.sync()  # compaction reads the durable tier: leave nothing behind it
        records, _tail = store.read_log(WAL_LOG)
        ledgers = [peer.ledger for peer in self.channel.peers.values()]
        keep = []
        for payload in records:
            tx_ids = _record_tx_ids(from_canonical_json(payload))
            if not all(any(led.has_tx(tx_id) for led in ledgers) for tx_id in tx_ids):
                keep.append(payload)
        if len(keep) == len(records):
            return
        store.truncate_log(WAL_LOG)
        for payload in keep:
            store.append(WAL_LOG, payload)
        store.sync()

    def verify_validator_frontiers(self) -> dict[str, bool]:
        """Check each persisted frontier digest against the live replica log."""
        cluster = getattr(self.channel.orderer, "cluster", None)
        if cluster is None:
            return {}
        out: dict[str, bool] = {}
        for name in cluster.replica_names:
            raw = self.orderer_store.read_file(f"frontier-{name}")
            if raw is None:
                continue
            doc = from_canonical_json(raw)
            _, digest = cluster.replicas[name].log_frontier(int(doc["seq"]))
            out[name] = digest == doc["digest"]
        return out

    # -- crash + recovery ------------------------------------------------------

    def crash_and_recover(self, peer_name: str, torn: bool = False) -> RecoveryOutcome:
        """Amnesia crash: lose unsynced disk state and *all* memory, then
        restart from whatever the durable store still holds."""
        peer = self._peer(peer_name)
        self.stores[peer_name].crash(torn=torn)
        self._wipe(peer)
        return self.recover_peer(peer_name)

    def damage_wal(self, peer_name: str, mode: str) -> str:
        """Injected media fault; falls back to the checkpoint file when the
        synced WAL has nothing to damage (so the fault always bites)."""
        store = self.stores[self._peer(peer_name).name]
        detail = store.damage_tail(WAL_LOG, mode)
        if detail.startswith("no-op"):
            detail = store.corrupt_file(CHECKPOINT_FILE)
        return detail

    def recover_peer(self, peer_name: str) -> RecoveryOutcome:
        """Bring a wiped peer back; see the module docstring for the ladder."""
        peer = self._peer(peer_name)
        store = self.stores[peer.name]
        registry = get_registry()
        with obs_span("recovery") as sp:
            sp.set_attr("node", peer.name)
            damage = ""
            kind = "wal_replay"
            ckpt_height = replayed = 0
            try:
                records, tail = store.read_log(WAL_LOG)
                if tail:
                    damage = "torn_tail"
                ckpt_height, replayed = self._replay(peer, store, records)
            except WalCorruptionError:
                damage, kind = "corrupt", "state_transfer"
            except (DurabilityError, LedgerError, EncodingError, ValueError):
                damage, kind = damage or "invalid", "state_transfer"
            if kind == "state_transfer":
                ckpt_height = replayed = 0
                try:
                    donor = self._state_transfer(peer)
                    sp.set_attr("donor", donor)
                    self.stats.state_transfers += 1
                except RecoveryError:
                    kind = "full_resync"
                    self.stats.full_resyncs += 1
                    self._wipe(peer)
                    if peer.sanitizer is not None:
                        peer.sanitizer.note_recovery(peer.name, 0)
            if damage:
                self.stats.wal_damage += 1
                registry.counter("wal_damage_total", {"mode": damage}).inc()
            caught_up = self._catch_up(peer)
            height = peer.ledger.height
            lag = max(0, height - ckpt_height - replayed)
            outcome = RecoveryOutcome(
                node=peer.name,
                kind=kind,
                wal_damage=damage,
                checkpoint_height=ckpt_height,
                replayed_blocks=replayed,
                caught_up_blocks=caught_up,
                lag_blocks=lag,
                height=height,
            )
            self.recovery_log.append(outcome)
            self.stats.recoveries += 1
            self.stats.replayed_blocks += replayed
            self.stats.caught_up_blocks += caught_up
            self.stats.lag_blocks += lag
            registry.counter("recoveries_total", {"kind": kind}).inc()
            registry.counter("recovery_replayed_blocks_total").inc(replayed)
            registry.counter("recovery_lag_blocks_total").inc(lag)
            sp.set_attr("kind", kind)
            sp.set_attr("height", height)
            sp.set_attr("replayed", replayed)
            sp.set_attr("caught_up", caught_up)
            sp.set_attr("lag", lag)
            # Rebuild durable state so the *next* crash restarts from here.
            self.checkpoint_peer(peer)
            if peer.sanitizer is not None:
                peer.sanitizer.check_recovery(peer, self.channel)
        return outcome

    def crash_orderer(self) -> list[str]:
        """Orderer amnesia: queued-but-uncut txs are gone (and counted)."""
        orderer = self.channel.orderer
        dropped = orderer.drop_queued() if hasattr(orderer, "drop_queued") else []
        self.orderer_store.crash()
        if dropped:
            self.stats.orderer_dropped_txs += len(dropped)
            get_registry().counter(
                "txs_dropped_total", {"reason": "orderer_crash"}
            ).inc(len(dropped))
        return list(dropped)

    def pending_batches(self) -> dict[str, list[str]]:
        """Durably recorded batches (request id -> tx ids) not yet covered by
        a checkpoint: the orderer log is compacted whenever one is written."""
        records, _tail = self.orderer_store.read_log(WAL_LOG)
        out: dict[str, list[str]] = {}
        for payload in records:
            doc = from_canonical_json(payload)
            if doc.get("type") == "batch":
                out[doc["request_id"]] = _record_tx_ids(doc)
        return out

    # -- internals -------------------------------------------------------------

    def _peer(self, peer_name: str):
        try:
            return self.channel.peers[peer_name]
        except KeyError:
            raise DurabilityError(f"unknown peer {peer_name!r}") from None

    @staticmethod
    def _wipe(peer) -> None:
        """Amnesia: everything in memory is gone; identity and code survive
        (they live in config/packages, not node state)."""
        peer.world = WorldState()
        peer.ledger = BlockStore()
        peer.private = PrivateStateStore(org=peer.org, registry=peer.collections)
        if getattr(peer, "index", None) is not None:
            peer.index = peer.index.fresh()
        peer.online = True

    def _replay(self, peer, store: DurableStore, records: list[bytes]) -> tuple[int, int]:
        """Checkpoint adoption + WAL replay through full validation."""
        ckpt_height = 0
        raw = store.read_file(CHECKPOINT_FILE)
        if raw is not None:
            snapshot = Snapshot.from_bytes(raw)
            bootstrap_peer(peer, snapshot)  # digest-verified adoption
            self._restore_private(peer, store)
            self._restore_index(peer, store)
            ckpt_height = snapshot.height
        if peer.sanitizer is not None:
            peer.sanitizer.note_recovery(peer.name, peer.ledger.height)
        replayed = 0
        self._replaying.add(peer.name)
        try:
            for payload in records:
                doc = from_canonical_json(payload)
                if doc.get("type") != "block":
                    continue
                block = block_from_doc(doc["block"])
                if block.header.number < peer.ledger.height:
                    continue  # covered by the checkpoint
                annotated = peer.commit_block(
                    Block(header=block.header, transactions=block.transactions),
                    consensus_rejected=frozenset(doc.get("rejected", ())),
                )
                if tuple(annotated.validation_codes) != tuple(block.validation_codes):
                    raise DurabilityError(
                        f"block {block.header.number} revalidated differently "
                        f"on replay — WAL record untrustworthy"
                    )
                recorded_epoch = doc.get("index_epoch")
                if recorded_epoch is not None and peer.index is not None:
                    rebuilt = peer.index.epochs.get(block.header.number)
                    if rebuilt != recorded_epoch:
                        raise DurabilityError(
                            f"index epoch for block {block.header.number} "
                            f"rebuilt differently on replay — WAL record "
                            f"untrustworthy"
                        )
                replayed += 1
        finally:
            self._replaying.discard(peer.name)
        return ckpt_height, replayed

    def _state_transfer(self, peer) -> str:
        """Adopt a digest-verified snapshot agreed on by every at-head donor."""
        donors = [
            p
            for p in self.channel.peers.values()
            if p.online and p.name != peer.name and p.ledger.height > 0
        ]
        if not donors:
            raise RecoveryError(f"no online donor for state transfer to {peer.name!r}")
        head = max(d.ledger.height for d in donors)
        at_head = sorted(
            (d for d in donors if d.ledger.height == head), key=lambda d: d.name
        )
        donor = at_head[0]
        snapshot = take_snapshot(donor, self.channel.name)
        diverged = check_peers(at_head)
        if diverged:
            raise RecoveryError(
                f"refusing unverifiable state-transfer snapshot: {diverged[0].detail}"
            )
        adopt_snapshot(peer, snapshot)  # resets partial replay state, verifies digest
        self._adopt_private(peer, at_head)
        if peer.index is not None:
            # The index is derivable from world state, so a verified
            # snapshot is enough to rebuild it (epoch history before the
            # snapshot height is not recoverable and stays empty).
            from repro.index import PeerIndex

            peer.index = PeerIndex.from_world(
                peer.world,
                peer.ledger.height,
                peer.index.trusted_threshold,
                peer.index.min_threshold,
            )
        if peer.sanitizer is not None:
            peer.sanitizer.note_recovery(peer.name, peer.ledger.height)
        return donor.name

    def _catch_up(self, peer) -> int:
        """Block delivery from the best online peer ahead of us."""
        best = None
        for other in self.channel.peers.values():
            if other is peer or not other.online:
                continue
            if other.ledger.height <= peer.ledger.height:
                continue
            if best is None or (other.ledger.height, other.name) > (
                best.ledger.height,
                best.name,
            ):
                best = other
        if best is None:
            return 0
        return sync_peer(peer, best, self.channel.rejected_by_block)

    @staticmethod
    def _private_doc(peer) -> dict:
        doc: dict[str, list] = {}
        for collection, store in sorted(peer.private._stores.items()):
            entries = []
            for key in store.keys():
                value = store.get(key)
                if value is None:
                    continue
                version = store.get_version(key)
                entries.append([key, value.hex(), version.block, version.tx])
            doc[collection] = entries
        return doc

    def _restore_private(self, peer, store: DurableStore) -> None:
        raw = store.read_file(PRIVATE_FILE)
        if raw is None:
            return
        for collection, entries in from_canonical_json(raw).items():
            if not peer.private.has_collection(collection):
                continue
            target = peer.private.store_for(collection)
            for key, value, block, tx in entries:
                target.apply_write(
                    key,
                    bytes.fromhex(value),
                    Version(block=int(block), tx=int(tx)),
                    tx_id="checkpoint-restore",
                    timestamp=0.0,
                )

    @staticmethod
    def _restore_index(peer, store: DurableStore) -> None:
        """Restore the checkpointed index; rebuild from world on any gap.

        A checkpoint written by :meth:`checkpoint_peer` always carries a
        matching index file, but an older store (or one damaged between
        files) may not — the index is state-derived, so a rebuild from the
        freshly adopted world is always a sound fallback.
        """
        if peer.index is None:
            return
        from repro.index import PeerIndex

        raw = store.read_file(INDEX_FILE)
        restored = None
        if raw is not None:
            try:
                restored = PeerIndex.from_lines(raw.split(b"\n"))
            except (EncodingError, LookupError, TypeError, ValueError):
                restored = None
        if restored is not None and restored.height == peer.ledger.height:
            peer.index = restored
        else:
            peer.index = PeerIndex.from_world(
                peer.world,
                peer.ledger.height,
                peer.index.trusted_threshold,
                peer.index.min_threshold,
            )

    def _adopt_private(self, peer, donors) -> None:
        """Private collections can only come from a same-org donor (snapshots
        cover public state; non-members never hold the plaintext)."""
        for donor in donors:
            if donor.org != peer.org:
                continue
            for collection, store in sorted(donor.private._stores.items()):
                target = peer.private.store_for(collection)
                for key in store.keys():
                    value = store.get(key)
                    if value is None:
                        continue
                    target.apply_write(
                        key,
                        value,
                        store.get_version(key),
                        tx_id="state-transfer",
                        timestamp=0.0,
                    )
            return
