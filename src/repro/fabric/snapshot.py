"""State snapshots: checkpointing and fast peer bootstrap.

A long-running channel accumulates thousands of blocks; a new peer (or an
org restoring from disaster) should not have to replay all of them.
Fabric v2.4 added ledger snapshots for exactly this; here a
:class:`Snapshot` captures a peer's world state (values + versions) plus
the ledger coordinate it reflects (height, last block hash) under a
deterministic digest, so the receiver can verify the snapshot byte-for-byte
against any honest peer before adopting it.

The digest also powers :func:`state_digest`-based divergence auditing: two
honest peers at the same height must produce identical digests, which the
tests use as the fabric's end-to-end consistency oracle.

Both are built from the world's *snapshot lines* (one canonical-JSON line
per live key, cached by :class:`~repro.fabric.worldstate.WorldState` until
the key is next written): the digest is sha256 over the lines, a snapshot's
bytes are a header line plus the lines. A receiver never trusts a line — it
loads key, value and version from each and recomputes the digest from what
it loaded.

A :class:`SnapshotDelta` carries only the lines of the keys written since a
peer's previous checkpoint, plus the keys deleted since. It is not
digest-verified — that would hash the whole world — but hash-chained: its
own sha256 covers its body, and its ``prev`` names the delta before it, or
the base snapshot's state digest for the first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import EncodingError, LedgerError
from repro.fabric.ledger import BlockStore
from repro.fabric.peer import Peer
from repro.fabric.worldstate import Version, WorldState
from repro.util.serialization import canonical_json, from_canonical_json, value_from_json


def state_digest(world: WorldState) -> str:
    """Deterministic digest over (key, value, version) of the live state:
    sha256 over the world's snapshot lines in key order."""
    return world.digest()


@dataclass(frozen=True)
class Snapshot:
    """A verifiable capture of one peer's committed state.

    ``entries`` are the world's snapshot lines — canonical JSON
    ``[key, value, block, tx]``, one per live key in key order — exactly
    as :meth:`WorldState.snapshot_lines` caches them, so serialising a
    snapshot is a join. Canonical JSON never contains a raw newline, which
    makes ``\\n`` a safe separator: ``to_bytes`` is a header line followed by
    the entry lines.
    """

    channel: str
    height: int
    last_block_hash: str
    entries: tuple[bytes, ...]
    digest: str

    def to_bytes(self) -> bytes:
        header = canonical_json(
            {
                "channel": self.channel,
                "height": self.height,
                "last_block_hash": self.last_block_hash,
                "n": len(self.entries),
                "digest": self.digest,
            }
        )
        return b"\n".join((header, *self.entries))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Snapshot":
        header, *entries = raw.split(b"\n")
        try:
            doc = from_canonical_json(header)
            snapshot = cls(
                channel=doc["channel"],
                height=int(doc["height"]),
                last_block_hash=doc["last_block_hash"],
                entries=tuple(entries),
                digest=doc["digest"],
            )
            declared = int(doc["n"])
        except (EncodingError, KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed snapshot: {exc}") from exc
        if declared != len(entries):
            raise LedgerError(
                f"malformed snapshot: header counts {declared} entries, "
                f"found {len(entries)}"
            )
        return snapshot


def _parse_entry(line: bytes) -> tuple[str, bytes, Version]:
    """Decode one snapshot line into ``(key, value, version)``; raises
    :class:`LedgerError` for an unparsable line, wrong arity or a value
    :func:`value_from_json` refuses."""
    try:
        key, value, block, tx = from_canonical_json(line)
        if not isinstance(key, str):
            raise TypeError(f"key is {type(key).__name__}, not str")
        return key, value_from_json(value), Version(block=int(block), tx=int(tx))
    except (EncodingError, TypeError, ValueError) as exc:
        raise LedgerError(f"malformed snapshot entry: {exc}") from exc


@dataclass(frozen=True)
class SnapshotDelta:
    """What one peer's world changed between two of its checkpoints.

    ``body`` is a header line — ``height``, ``last_block_hash``, ``prev``,
    ``deleted`` (``[key, block, tx]`` per deleted key) and the entry count
    ``n`` — followed by the snapshot lines of the written keys still live, in
    key order; ``digest`` is sha256 over ``body``. ``to_bytes`` puts the
    digest on a line of its own before the body.
    """

    body: bytes
    digest: str

    def to_bytes(self) -> bytes:
        return self.digest.encode("ascii") + b"\n" + self.body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SnapshotDelta":
        digest, _, body = raw.partition(b"\n")
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            raise LedgerError("snapshot delta does not match its own hash")
        return cls(body=body, digest=digest.decode("ascii"))


def chain_digest(raw: bytes | None) -> str | None:
    """The digest a delta written after the checkpoint file ``raw`` chains
    onto: a base's state digest or a delta's own hash, read from the first
    line and not verified (recovery verifies). ``None`` when there is no
    file or its first line is unreadable: nothing can chain onto it."""
    if raw is None:
        return None
    end = raw.find(b"\n")
    first = raw if end < 0 else raw[:end]
    try:
        if first.startswith(b"{"):
            return str(from_canonical_json(first)["digest"])
        return first.decode("ascii")
    except (EncodingError, KeyError, TypeError, UnicodeDecodeError):
        return None


def take_delta(peer: Peer, changed: list[str], prev: str) -> SnapshotDelta:
    """The delta of the ``changed`` keys (in key order) at the peer's height,
    chained onto ``prev``."""
    world = peer.world
    live = [key for key in changed if world.has(key)]
    deleted = []
    for key in changed:
        if not world.has(key):
            version = world.get_version(key)
            deleted.append([key, version.block, version.tx])
    header = canonical_json(
        {
            "height": peer.ledger.height,
            "last_block_hash": peer.ledger.last_hash(),
            "prev": prev,
            "deleted": deleted,
            "n": len(live),
        }
    )
    body = b"\n".join((header, *world.snapshot_lines(live)))
    return SnapshotDelta(body=body, digest=hashlib.sha256(body).hexdigest())


def apply_delta(peer: Peer, delta: SnapshotDelta, prev: str) -> None:
    """Load a delta onto a peer holding the base and the deltas before it;
    ``prev`` is the digest the delta must chain onto. A broken link, a
    malformed body or a height below the peer's is a :class:`LedgerError`."""
    header, *entries = delta.body.split(b"\n")
    try:
        doc = from_canonical_json(header)
        link, height = doc["prev"], int(doc["height"])
        last_block_hash, declared = doc["last_block_hash"], int(doc["n"])
        deleted = [
            (key, Version(block=int(block), tx=int(tx)))
            for key, block, tx in doc["deleted"]
        ]
    except (EncodingError, KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"malformed snapshot delta: {exc}") from exc
    if link != prev:
        raise LedgerError("snapshot delta does not chain onto the checkpoint before it")
    if declared != len(entries) or height < peer.ledger.height:
        raise LedgerError(
            f"malformed snapshot delta: {len(entries)} of {declared} entries "
            f"at height {height}, peer at {peer.ledger.height}"
        )
    world, previous = peer.world, None
    for line in entries:
        key, value, version = _parse_entry(line)
        if previous is not None and key <= previous:
            raise LedgerError(f"snapshot delta entries out of key order at {key!r}")
        previous = key
        world.apply_write(key, value, version, tx_id="snapshot", timestamp=0.0)
    for key, version in deleted:
        world.apply_write(key, None, version, tx_id="snapshot", timestamp=0.0)
    peer.ledger = BlockStore(base_height=height, base_prev_hash=last_block_hash)


def take_snapshot(peer: Peer, channel_name: str) -> Snapshot:
    """Capture a peer's current world state and ledger coordinate; the
    digest is hashed from the same lines the snapshot carries."""
    entries = peer.world.snapshot_lines()
    digest = hashlib.sha256()
    for line in entries:
        digest.update(line)
    return Snapshot(
        channel=channel_name,
        height=peer.ledger.height,
        last_block_hash=peer.ledger.last_hash(),
        entries=entries,
        digest=digest.hexdigest(),
    )


def bootstrap_peer(peer: Peer, snapshot: Snapshot) -> None:
    """Adopt a snapshot on a fresh peer: verify its digest, load the state,
    and checkpoint the block store so commits resume at ``height``."""
    if peer.ledger.height != 0 or len(peer.world) != 0:
        raise LedgerError("can only bootstrap a fresh peer from a snapshot")
    world = WorldState()
    previous = None
    for line in snapshot.entries:
        # A received line is never trusted: load key, value and version from
        # it, then compare the digest recomputed from the loaded world.
        key, value, version = _parse_entry(line)
        if previous is not None and key <= previous:
            raise LedgerError(f"snapshot entries out of key order at {key!r}")
        previous = key
        world.apply_write(
            key=key, value=value, version=version, tx_id="snapshot", timestamp=0.0
        )
    if state_digest(world) != snapshot.digest:
        raise LedgerError("snapshot digest mismatch — refusing to adopt")
    peer.world = world
    peer.ledger = BlockStore(
        base_height=snapshot.height, base_prev_hash=snapshot.last_block_hash
    )


def adopt_snapshot(peer: Peer, snapshot: Snapshot) -> int:
    """Replace a (possibly lagging or damaged) peer's state with a verified
    snapshot, instead of replaying the chain block by block.

    Unlike :func:`bootstrap_peer` this accepts a non-fresh peer — the
    revived-node case — but refuses to move a peer *backwards*: adopting a
    snapshot below the peer's current height would silently discard
    committed blocks. Returns the number of blocks the peer skipped
    replaying (snapshot height minus the height it was at).
    """
    if snapshot.height < peer.ledger.height:
        raise LedgerError(
            f"snapshot at height {snapshot.height} is behind peer "
            f"{peer.name!r} at {peer.ledger.height} — refusing to rewind"
        )
    skipped = snapshot.height - peer.ledger.height
    peer.world = WorldState()
    peer.ledger = BlockStore()
    bootstrap_peer(peer, snapshot)  # digest-verified adoption
    return skipped


def states_agree(a: Peer, b: Peer) -> bool:
    """Divergence audit: do two peers hold identical committed state?"""
    return state_digest(a.world) == state_digest(b.world)
