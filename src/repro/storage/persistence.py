"""Durability manager: WAL + checkpoints per node, and real crash recovery.

One :class:`~repro.storage.durable.DurableStore` per peer (plus one for
the ordering service) holds:

* ``wal`` — one framed canonical-JSON record per committed block
  (``{"type": "block", "block": ..., "index_epoch": ...}``, the consensus
  verdicts inside the block's header), synced every
  ``wal_sync_every`` blocks — so a crash can lose at most the unsynced
  suffix; its transaction documents are the envelopes the orderer's
  ``batch`` record holds, rendered once (``Transaction.envelope_bytes``);
* ``checkpoint`` plus ``checkpoint-delta-<n>`` — a base
  :class:`~repro.fabric.snapshot.Snapshot` and the
  :class:`~repro.fabric.snapshot.SnapshotDelta` of each checkpoint since
  (one every ``checkpoint_interval`` blocks), written atomically; the WAL
  is truncated once a checkpoint covers it.

The peer's :class:`~repro.index.PeerIndex` is derived state and is not
persisted: every recovery path rebuilds it from the world state the peer
adopted (:meth:`~repro.index.PeerIndex.from_world`). What the WAL keeps of
it is each block's epoch digest, which replay checks the rebuilt index
against.

A checkpoint writes and hashes what changed since the peer's previous
one: a delta of the lines of the keys written since
(``WorldState.take_changed``), hash-chained onto the delta before it or the
base's state digest. Once the deltas' bytes reach the base's, it *folds*:
a fresh base, the deltas deleted in the same ``sync``. The orderer's own
log (``submit`` / ``batch`` records) is compacted once per ledger height,
by the first peer to checkpoint there, to the records whose transactions
are not yet on a ledger — so it holds what no checkpoint covers yet rather
than every batch ever cut.

Recovery (:meth:`DurabilityManager.recover_peer`) tries, in order:

1. **WAL replay** — adopt the base snapshot (digest-verified by
   :func:`~repro.fabric.snapshot.bootstrap_peer`), apply the deltas in
   order, each checked against its own hash and its ``prev`` link, rebuild
   the index from the result, then re-commit every WAL block through the
   normal validation path, checking each rebuilt epoch against the
   journaled one; a torn tail is dropped.
2. **Verified state transfer** — on WAL corruption or an unusable
   checkpoint piece: take a snapshot from the best online donor, check that
   *every* online peer at that height agrees on the state digest and
   head hash (:func:`repro.fabric.audit.check_peers`, the replica-parity
   check every audit runs), adopt it, rebuild the index from it, and
   catch up via block delivery.
3. **Full resync** — last resort with no usable donor snapshot: rejoin
   empty and let gossip deliver the chain from genesis.

Whatever the path, recovery ends by rebuilding the node's durable state
(a fold: fresh base, no deltas, truncated WAL), emitting a ``recovery``
span plus metrics, and handing the peer to the sanitizer: its chain, world
state and index are audited again, and SAN307 checks replica parity. A
sanitized crash first has the peer's chain, world state and index audited,
so a tamper the wipe erases is still reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    DurabilityError,
    EncodingError,
    LedgerError,
    RecoveryError,
    WalCorruptionError,
)
from repro.fabric.audit import check_peers
from repro.fabric.gossip import sync_peer
from repro.fabric.ledger import BlockStore
from repro.fabric.snapshot import (
    Snapshot,
    SnapshotDelta,
    adopt_snapshot,
    apply_delta,
    bootstrap_peer,
    chain_digest,
    take_delta,
    take_snapshot,
)
from repro.fabric.worldstate import WorldState
from repro.index import PeerIndex
from repro.obs.metrics import get_registry
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span
from repro.storage.codec import batch_record, block_from_doc, block_record
from repro.storage.durable import DurableStore
from repro.util.serialization import canonical_json, from_canonical_json

WAL_LOG = "wal"
CHECKPOINT_FILE = "checkpoint"
DELTA_PREFIX = CHECKPOINT_FILE + "-delta-"


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


def _delta_files(store: DurableStore) -> list[str]:
    """The delta files on a peer's disk, oldest first."""
    return sorted(
        (n for n in store.files() if n.startswith(DELTA_PREFIX)),
        key=lambda n: int(n[len(DELTA_PREFIX):]),
    )


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
        # The orderer log's records and their tx ids, so that compaction
        # decodes none; rebuilt from disk after a crash.
        self._orderer_log: list[tuple[bytes, list[str]]] = []
        # Ledger height of the last checkpoint that also compacted the
        # orderer log.
        self._orderer_checkpoint_height = -1
        for peer in channel.peers.values():
            peer.journal = self
        if hasattr(channel.orderer, "journal"):
            channel.orderer.journal = self

    # -- journaling (called from the commit / ordering paths) -----------------

    def record_commit(self, peer, block) -> None:
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
            store.append(WAL_LOG, block_record(block, index_epoch))
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
            self._append_orderer(
                canonical_json({"type": "submit", "tx_id": tx.tx_id}), [tx.tx_id]
            )

    def record_batch(self, request_id: str, txs) -> None:
        """A batch went to consensus: persist it (synced) with full tx docs."""
        with profiled("storage.wal"):
            self._append_orderer(
                batch_record(request_id, txs), [tx.tx_id for tx in txs]
            )
            self.orderer_store.sync()

    def _append_orderer(self, payload: bytes, tx_ids: list[str]) -> None:
        self.orderer_store.append(WAL_LOG, payload)
        self._orderer_log.append((payload, tx_ids))

    # -- checkpoints -----------------------------------------------------------

    def checkpoint_peer(self, peer) -> None:
        """Atomic checkpoint of ledger and world state; WAL truncated after.

        One delta of what changed since the peer's previous checkpoint, or a
        fold once the deltas' bytes reach the base's or the world has no base
        to be a delta of (it was just replaced). The index is not written:
        recovery rebuilds it from the snapshot. The orderer log is compacted
        by the first peer to checkpoint at each ledger height: a second
        compaction at the same height would find the same log.
        """
        store = self.stores.get(peer.name)
        if store is None:
            return
        with profiled("storage.checkpoint"):
            changed = peer.world.take_changed()
            base, deltas = store.read_file(CHECKPOINT_FILE), _delta_files(store)
            deltas_bytes = sum(len(store.read_file(name)) for name in deltas)
            prev = chain_digest(store.read_file(deltas[-1]) if deltas else base)
            if changed is None or base is None or prev is None or deltas_bytes >= len(base):
                snapshot = take_snapshot(peer, self.channel.name)
                store.write_file(CHECKPOINT_FILE, snapshot.to_bytes())
                for name in deltas:
                    store.delete_file(name)
            else:
                delta = take_delta(peer, changed, prev)
                store.write_file(f"{DELTA_PREFIX}{len(deltas) + 1}", delta.to_bytes())
            store.sync()
            store.truncate_log(WAL_LOG)
            if peer.ledger.height != self._orderer_checkpoint_height:
                self._orderer_checkpoint_height = peer.ledger.height
                self._compact_orderer_log()
        self.stats.checkpoints += 1
        get_registry().counter("checkpoints_total").inc()

    def _compact_orderer_log(self) -> None:
        """Rewrite the orderer log without the records whose transactions
        are all on a ledger already. What stays is what an orderer restart
        would still have to drive: submitted or cut, not yet committed.

        Every peer's ledger is asked, not only the checkpointing one's: a
        peer that recovered by state transfer indexes no transaction below
        its snapshot height, and would keep those records for good."""
        store = self.orderer_store
        store.sync()  # the rewrite replaces the durable tier: leave nothing behind it
        ledgers = [peer.ledger for peer in self.channel.peers.values()]
        keep = [
            record
            for record in self._orderer_log
            if not all(any(led.has_tx(tx_id) for led in ledgers) for tx_id in record[1])
        ]
        if len(keep) == len(self._orderer_log):
            return
        store.truncate_log(WAL_LOG)
        for payload, _tx_ids in keep:
            store.append(WAL_LOG, payload)
        self._orderer_log = keep
        store.sync()

    # -- crash + recovery ------------------------------------------------------

    def crash_and_recover(self, peer_name: str, torn: bool = False) -> RecoveryOutcome:
        """Amnesia crash: lose unsynced disk state and *all* memory, then
        restart from whatever the durable store still holds."""
        peer = self._peer(peer_name)
        if peer.sanitizer is not None:
            peer.sanitizer.check_peer(peer)  # the last look at what is lost
        self.stores[peer_name].crash(torn=torn)
        self._wipe(peer)
        return self.recover_peer(peer_name)

    def damage_wal(self, peer_name: str, mode: str) -> str:
        """Injected media fault; falls back to the newest checkpoint file —
        the last delta, else the base — when the synced WAL has nothing to
        damage (so the fault always bites)."""
        store = self.stores[self._peer(peer_name).name]
        detail = store.damage_tail(WAL_LOG, mode)
        if detail.startswith("no-op"):
            detail = store.corrupt_file((_delta_files(store) or [CHECKPOINT_FILE])[-1])
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
            # Rebuild durable state (a fold: the world was replaced) so the
            # *next* crash restarts from here.
            self.checkpoint_peer(peer)
            if peer.sanitizer is not None:
                peer.sanitizer.check_recovery(peer, self.channel)
        return outcome

    def crash_orderer(self) -> list[str]:
        """Orderer amnesia: queued-but-uncut txs are gone (and counted)."""
        orderer = self.channel.orderer
        dropped = orderer.drop_queued() if hasattr(orderer, "drop_queued") else []
        self.orderer_store.crash()
        records, _tail = self.orderer_store.read_log(WAL_LOG)
        self._orderer_log = [
            (payload, _record_tx_ids(from_canonical_json(payload))) for payload in records
        ]
        if dropped:
            self.stats.orderer_dropped_txs += len(dropped)
            get_registry().counter(
                "txs_dropped_total", {"reason": "orderer_crash"}
            ).inc(len(dropped))
        return list(dropped)

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
        if getattr(peer, "index", None) is not None:
            peer.index = PeerIndex()
        peer.online = True

    def _replay(self, peer, store: DurableStore, records: list[bytes]) -> tuple[int, int]:
        """Checkpoint adoption (base, then deltas) + WAL replay through full validation."""
        ckpt_height = 0
        raw = store.read_file(CHECKPOINT_FILE)
        if raw is not None:
            snapshot = Snapshot.from_bytes(raw)
            bootstrap_peer(peer, snapshot)  # digest-verified adoption
            prev = snapshot.digest
            for name in _delta_files(store):
                delta = SnapshotDelta.from_bytes(store.read_file(name))
                apply_delta(peer, delta, prev)
                prev = delta.digest
            self._rebuild_index(peer)
            ckpt_height = peer.ledger.height
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
                annotated = peer.commit_block(block)
                if annotated.validation_codes != block.validation_codes:
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
        self._rebuild_index(peer)
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
        return sync_peer(peer, best)

    @staticmethod
    def _rebuild_index(peer) -> None:
        """Rebuild the peer's index from the snapshot it just adopted.

        The index is derived from world state, so the adopted state is all
        it needs. The rebuild holds one epoch, the snapshot's (``height -
        1``) — the ledger holds no block below the snapshot either — and WAL
        replay or block delivery extend it from there.
        """
        if peer.index is None:
            return
        peer.index = PeerIndex.from_world(peer.world, peer.ledger.height)
