"""The authenticated index core: postings, epochs, proofs, rebuilds.

Structure
---------

* A :class:`Posting` per ``(dimension, value)`` pair holds the entry ids
  committed under that value **in commit order**, together with a chained
  digest — ``chain = H(prev_chain || entry_id || record_digest)`` — so an
  append costs O(1) and the whole history of the posting is committed by
  one hash. It also keeps the ids in entry-id order (one ``insort`` per
  append, not in the leaf), so a lookup copies or merges sorted runs
  instead of sorting a posting per call. A time bucket's posting keeps its
  ids in time order too (one ``bisect`` insert each), so a window's two
  edge buckets are cut at its bounds by bisection.
* Trust bands are *mutable* (scores move sources between bands), so the
  ``trust_band`` dimension is kept as the current source→score-digest map
  per band rather than an append-only posting.
* The epoch tree is one :class:`~repro.crypto.merkle.MerkleTree` over a
  height leaf, one leaf per posting in ``(dim, value)`` order, the band
  leaves and a tombstone leaf when any exist. It is **maintained in
  place**: :meth:`PeerIndex.apply_block` hands the leaves the block
  touched to the tree as one batch, and one pass re-hashes each interior
  node above them once — O(changed postings · log n), shared ancestors
  hashed once — while a *new* key (first sight of a camera, a new time
  bucket) is spliced in at its sorted position, recomputing interior nodes
  from the leftmost splice rightwards.
  The tree is derived state: never persisted, built once (one
  ``MerkleTree`` over all leaves) by ``from_world``.
* :meth:`PeerIndex.root` is an O(1) read of that tree; the root after
  applying block *n* is **epoch n**'s digest. Epoch digests are journaled
  into the WAL by the durability layer and auditable by the explorer.
* :meth:`PeerIndex.prove` is an O(log n) read that produces a
  :class:`PostingProof` a light client can verify against a trusted epoch
  root with :func:`verify_posting_proof` — no chain replay: the client
  recomputes the posting chain from the proof's entries, rebuilds the
  leaf, and checks Merkle membership.
* :meth:`PeerIndex.leaves` under a from-scratch ``MerkleTree`` is the
  **reference implementation** of the root: byte-identical to the
  maintained one at every epoch, used by tests and by SAN308 (which
  compares a ``from_world`` rebuild against both), never on the commit or
  query path.

The index only ever observes **valid** transactions' write sets, so it is
derived state: rebuildable from world state alone
(:meth:`PeerIndex.from_world`). Nothing persists it — every recovery path
rebuilds it from the state the peer adopted, and SAN308 compares the same
rebuild against the maintained root at each whole-peer check.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import orjson

from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import MerkleProofError
from repro.fabric.audit import valid_txs
from repro.obs.prof import profiled
from repro.trust.engine import MIN_TRUST_THRESHOLD, TRUSTED_THRESHOLD
from repro.util.serialization import canonical_json, render

_DATA_PREFIX = "data:"
_TRUST_PREFIX = "trust:"
_DATA_END = _DATA_PREFIX + "\x7f"
_TRUST_END = _TRUST_PREFIX + "\x7f"

# Leaf keys ``(rank, dim, value)`` sort in epoch-tree order: the height
# leaf, postings by (dim, value), band leaves, then the tombstone leaf.
_META, _POSTING, _BAND, _TOMBSTONES = range(4)
_LeafKey = tuple[int, str, str]
_META_KEY: _LeafKey = (_META, "_meta", "")
_TOMBSTONES_KEY: _LeafKey = (_TOMBSTONES, "_tombstones", "")

TIME_BUCKET_S = 600  # ten-minute buckets for time-range queries

# Zero-padded time-bucket ids sort chronologically only inside this range.
_BUCKET_ID_LIMIT = 10**12


def time_bucket(timestamp: float) -> str:
    """Zero-padded bucket id so lexicographic order is chronological."""
    return f"{int(timestamp // TIME_BUCKET_S):012d}"


def _list(value) -> list:
    return value if isinstance(value, list) else []


def _seed_chain(dim: str, value: str) -> str:
    """Domain-separated starting digest of a posting chain."""
    return hashlib.sha256(f"posting\x00{dim}\x00{value}".encode()).hexdigest()


def _extend_chain(chain: str, entry_id: str, record_digest: str) -> str:
    h = hashlib.sha256()
    h.update(bytes.fromhex(chain))
    h.update(entry_id.encode())
    h.update(bytes.fromhex(record_digest))
    return h.hexdigest()


def record_digest(raw: bytes) -> str:
    """Digest binding a posting entry to the exact on-chain record bytes."""
    return hashlib.sha256(raw).hexdigest()


@dataclass
class Posting:
    """Append-only entry list for one (dimension, value), chain-digested."""

    dim: str
    value: str
    entries: list[tuple[str, str]] = field(default_factory=list)
    chain: str = ""
    # The same ids in entry-id order: derived, for lookups, not in the leaf.
    ids: list[str] = field(default_factory=list, repr=False, compare=False)
    # A time bucket's timestamps, sorted, and its ids in that order: derived.
    times: list[float] = field(default_factory=list, repr=False, compare=False)
    by_time: list[str] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.chain:
            self.chain = _seed_chain(self.dim, self.value)

    def append(self, entry_id: str, digest: str) -> None:
        self.chain = _extend_chain(self.chain, entry_id, digest)
        self.entries.append((entry_id, digest))
        insort(self.ids, entry_id)

    def leaf_bytes(self) -> bytes:
        return _posting_leaf(self.chain, self.dim, len(self.entries), self.value)


def _posting_leaf(chain: str, dim: str, n: int, value: str) -> bytes:
    """``canonical_json({"chain": chain, "dim": dim, "n": n, "value": value})``,
    rendered unchecked: the shape is fixed."""
    with profiled("serialize.index_leaf"):
        return render({"chain": chain, "dim": dim, "n": n, "value": value})


def _height_leaf(height: int) -> bytes:
    """``canonical_json({"dim": "_meta", "height": height})``, rendered unchecked."""
    with profiled("serialize.index_leaf"):
        return render({"dim": "_meta", "height": height})


def _band_leaf_bytes(band: str, sources: dict[str, str]) -> bytes:
    return canonical_json(
        {
            "dim": "trust_band",
            "sources": [[sid, digest] for sid, digest in sorted(sources.items())],
            "value": band,
        }
    )


@dataclass(frozen=True)
class PostingProof:
    """Merkle membership proof for one posting leaf at one epoch.

    ``entries`` is the full entry list of the posting (``(entry_id,
    record_digest)`` pairs in commit order; for ``trust_band`` it is the
    ``(source_id, score_digest)`` map instead). The verifier recomputes the
    posting chain / band leaf from the entries alone, so a tampered or
    truncated entry list cannot reconstruct the committed leaf.
    """

    dim: str
    value: str
    entries: tuple[tuple[str, str], ...]
    merkle: MerkleProof
    root: str  # hex epoch root this proof targets
    height: int  # chain height (blocks) at the proven epoch


def verify_posting_proof(proof: PostingProof, trusted_root: str) -> bool:
    """Raise :class:`MerkleProofError` unless the proof's entries are the
    committed posting under ``trusted_root`` (a hex epoch digest); returns
    True on success so it composes with assertions."""
    if proof.root != trusted_root:
        raise MerkleProofError(
            "posting proof targets a different epoch root than trusted"
        )
    if proof.dim == "trust_band":
        leaf = _band_leaf_bytes(proof.value, dict(proof.entries))
    else:
        chain = _seed_chain(proof.dim, proof.value)
        for entry_id, digest in proof.entries:
            chain = _extend_chain(chain, entry_id, digest)
        leaf = _posting_leaf(chain, proof.dim, len(proof.entries), proof.value)
    proof.merkle.verify(leaf, bytes.fromhex(trusted_root))
    return True


def verify_answer_records(
    records: list[dict], proofs: tuple[PostingProof, ...], trusted_root: str
) -> int:
    """Light-client verification of a query answer, no chain replay.

    Every proof must verify against ``trusted_root``, and every answer
    record must hash (canonical JSON) to the record digest its posting
    committed. Returns the number of verified records; raises
    :class:`MerkleProofError` on any failure.
    """
    digests: dict[str, str] = {}
    for proof in proofs:
        verify_posting_proof(proof, trusted_root)
        if proof.dim != "trust_band":
            digests.update(dict(proof.entries))
    for record in records:
        entry_id = record.get("entry_id")
        expected = digests.get(entry_id)
        if expected is None:
            raise MerkleProofError(
                f"answer row {entry_id!r} is not covered by any posting proof"
            )
        if record_digest(canonical_json(record)) != expected:
            raise MerkleProofError(
                f"answer row {entry_id!r} does not match its committed digest"
            )
    return len(records)


class PeerIndex:
    """One peer's cumulative index, advanced one committed block at a time."""

    def __init__(self) -> None:
        self.postings: dict[tuple[str, str], Posting] = {}
        # band -> source -> digest of the current on-chain trust record.
        self.bands: dict[str, dict[str, str]] = {}
        self.band_of: dict[str, str] = {}
        self.height = 0  # blocks applied; epoch n exists once height == n+1
        self.epochs: dict[int, str] = {}
        self.tombstones: set[str] = set()
        self._indexed: set[str] = set()
        # The maintained epoch tree: sorted leaf keys, their Merkle tree, and
        # the keys whose leaves the block being applied has changed so far.
        self._dirty: set[_LeafKey] = set()
        self._rebuild_tree()

    # -- band mapping --------------------------------------------------------

    def band_for(self, score: float) -> str:
        if score >= TRUSTED_THRESHOLD:
            return "trusted"
        if score >= MIN_TRUST_THRESHOLD:
            return "provisional"
        return "untrusted"

    # -- incremental maintenance (commit path) --------------------------------

    def apply_block(self, block) -> str:
        """Index a committed (annotated) block's valid writes; returns the
        new epoch digest, also recorded under ``epochs[block.number]``."""
        for tx in valid_txs(block):
            for write in tx.rwset.writes:
                self._apply_write(write)
        self.height = block.number + 1
        self._dirty.add(_META_KEY)
        self._flush_tree()
        digest = self.root()
        self.epochs[block.number] = digest
        return digest

    def _apply_write(self, write) -> None:
        key = write.key
        if key.startswith(_DATA_PREFIX):
            if write.is_delete or write.value is None:
                entry_id = key[len(_DATA_PREFIX):]
                if entry_id in self._indexed:
                    self.tombstones.add(entry_id)
                    self._dirty.add(_TOMBSTONES_KEY)
                return
            self._insert(key, write.value)
        elif key.startswith(_TRUST_PREFIX):
            if not (write.is_delete or write.value is None):
                self._apply_trust(key[len(_TRUST_PREFIX):], write.value)

    def _insert(self, key: str, raw: bytes) -> None:
        """Index one ``data:`` record; undecodable values are skipped."""
        try:
            record = orjson.loads(raw)
        except orjson.JSONDecodeError:
            return
        if not isinstance(record, dict):
            return
        entry_id = record.get("entry_id") or key[len(_DATA_PREFIX):]
        if entry_id in self._indexed:
            return  # data records are immutable; re-commit is a no-op
        digest = record_digest(raw)
        for dim, value in self._record_dims(record):
            posting = self.postings.get((dim, value))
            if posting is None:
                posting = self.postings[(dim, value)] = Posting(dim, value)
            posting.append(entry_id, digest)
            if dim == "time":
                ts = record["metadata"]["timestamp"]
                at = bisect_right(posting.times, ts)
                posting.times.insert(at, ts)
                posting.by_time.insert(at, entry_id)
            self._dirty.add((_POSTING, dim, value))
        self._indexed.add(entry_id)

    @staticmethod
    def _record_dims(record: dict) -> list[tuple[str, str]]:
        metadata = record.get("metadata") or {}
        dims: list[tuple[str, str]] = []
        source = record.get("source_id")
        if source:
            dims.append(("source", str(source)))
        camera = metadata.get("camera_id") if isinstance(metadata, dict) else None
        if camera:
            dims.append(("camera", str(camera)))
        ts = metadata.get("timestamp") if isinstance(metadata, dict) else None
        if isinstance(ts, (int, float)):
            dims.append(("time", time_bucket(ts)))
        classes, violations = set(), set()
        if isinstance(metadata, dict):
            # A non-list array field indexes nothing, as a non-object element
            # does: a client's malformed record must never fail a commit.
            for detection in _list(metadata.get("detections")):
                if isinstance(detection, dict) and detection.get("vehicle_class"):
                    classes.add(str(detection["vehicle_class"]))
            for violation in _list(metadata.get("violations")):
                if isinstance(violation, dict) and violation.get("violation_type"):
                    violations.add(str(violation["violation_type"]))
        dims.extend(("class", c) for c in sorted(classes))
        dims.extend(("violation", v) for v in sorted(violations))
        return dims

    def _apply_trust(self, source_id: str, raw: bytes) -> None:
        try:
            record = orjson.loads(raw)
        except orjson.JSONDecodeError:
            return
        if not isinstance(record, dict):
            return
        try:
            score = float(record.get("score", 0.0))
        except (TypeError, ValueError):
            return
        band = self.band_for(score)
        old = self.band_of.get(source_id)
        if old is not None and old != band:
            self.bands[old].pop(source_id, None)
            if not self.bands[old]:
                del self.bands[old]
            self._dirty.add((_BAND, "trust_band", old))
        self.band_of[source_id] = band
        self.bands.setdefault(band, {})[source_id] = record_digest(raw)
        self._dirty.add((_BAND, "trust_band", band))

    # -- the authenticated epoch root ------------------------------------------

    def _live_keys(self) -> list[_LeafKey]:
        """Sorted leaf keys derived from the live posting/band state."""
        keys = [_META_KEY]
        keys.extend((_POSTING, dim, value) for dim, value in sorted(self.postings))
        keys.extend((_BAND, "trust_band", band) for band in sorted(self.bands))
        if self.tombstones:
            keys.append(_TOMBSTONES_KEY)
        return keys

    def _leaf(self, key: _LeafKey) -> bytes | None:
        """Leaf bytes for ``key`` from live state; None if it has no leaf."""
        rank, dim, value = key
        if rank == _META:
            return _height_leaf(self.height)
        if rank == _POSTING:
            return self.postings[(dim, value)].leaf_bytes()
        if rank == _BAND:
            sources = self.bands.get(value)
            return _band_leaf_bytes(value, sources) if sources else None
        if not self.tombstones:
            return None
        return canonical_json({"dim": "_tombstones", "ids": sorted(self.tombstones)})

    def leaves(self) -> list[bytes]:
        """Every leaf re-serialised from live state, in deterministic order:
        height leaf, entry postings sorted by (dim, value), band leaves, then
        the tombstone leaf when present. ``MerkleTree(index.leaves()).root``
        is the reference the maintained :meth:`root` must equal."""
        return [self._leaf(key) for key in self._live_keys()]

    def _rebuild_tree(self) -> None:
        """Bulk build: one ``MerkleTree`` over every leaf of the live state."""
        self._keys = self._live_keys()
        self._tree = MerkleTree([self._leaf(key) for key in self._keys])
        self._dirty.clear()

    def _flush_tree(self) -> None:
        """Bring the tree up to date with the leaves changed since the last
        flush, as one :meth:`MerkleTree.edit` batch: update a changed leaf,
        splice a new key in at its sorted position, drop a leaf whose band
        emptied — then one re-hash pass."""
        keys = self._keys
        ops: list[tuple[str, int, bytes | None]] = []
        # Each op's position is the key's place in ``keys`` as the ops before
        # it left it, so any order gives the same tree; key order keeps the
        # batch itself reproducible.
        for key in sorted(self._dirty):
            leaf = self._leaf(key)
            pos = bisect_left(keys, key)
            present = pos < len(keys) and keys[pos] == key
            if leaf is None:
                if present:
                    del keys[pos]
                    ops.append(("delete", pos, None))
            elif present:
                ops.append(("update", pos, leaf))
            else:
                keys.insert(pos, key)
                ops.append(("insert", pos, leaf))
        self._tree.edit(ops)
        self._dirty.clear()

    def root(self) -> str:
        return self._tree.root.hex()

    def prove(self, dim: str, value: str) -> PostingProof:
        """Membership proof for one posting (or trust band) at the current
        epoch. Raises :class:`MerkleProofError` for an unknown value —
        absence proofs are out of scope for this structure."""
        if dim == "trust_band":
            sources = self.bands.get(value)
            if sources is None:
                raise MerkleProofError(f"no trust band {value!r} in the index")
            key = (_BAND, dim, value)
            entries = tuple(sorted(sources.items()))
        else:
            posting = self.postings.get((dim, value))
            if posting is None:
                raise MerkleProofError(f"no posting for {dim}={value!r}")
            key = (_POSTING, dim, value)
            entries = tuple(posting.entries)
        return PostingProof(
            dim=dim,
            value=value,
            entries=entries,
            merkle=self._tree.proof(bisect_left(self._keys, key)),
            root=self.root(),
            height=self.height,
        )

    # -- lookups (the planner's index route) ------------------------------------

    def has(self, dim: str, value: str) -> bool:
        """Is there a posting (or trust band) to prove for this value?"""
        if dim == "trust_band":
            return value in self.bands
        return (dim, value) in self.postings

    def lookup(self, dim: str, value: str) -> list[str]:
        """Entry ids under one value, in entry-id order; tombstoned entries
        excluded. ``trust_band`` expands through the member sources' postings."""
        if dim == "trust_band":
            keys = [("source", source) for source in self.bands.get(value, ())]
        else:
            keys = [(dim, value)]
        postings = self.postings
        return self._merged([postings[k].ids for k in keys if k in postings])

    def lookup_time_range(
        self, lower: float, upper: float, lower_closed: bool = True, upper_closed: bool = False
    ) -> list[str]:
        """Entry ids whose timestamp lies in the window, each bound inclusive
        when it is ``_closed`` (``[lower, upper)`` by default), in entry-id
        order; tombstoned entries excluded. The edge buckets, told apart by
        number, are cut by bisection; a bucket between them is taken whole."""
        lo_b, hi_b = int(lower // TIME_BUCKET_S), int(upper // TIME_BUCKET_S)
        runs = []
        for value in self.time_buckets(lower, upper):
            posting = self.postings[("time", value)]
            if lo_b < int(value) < hi_b:
                runs.append(posting.ids)
                continue
            start = (bisect_left if lower_closed else bisect_right)(posting.times, lower)
            end = (bisect_right if upper_closed else bisect_left)(posting.times, upper)
            runs.append(sorted(posting.by_time[start:end]))
        return self._merged(runs)

    def _merged(self, runs: list[list[str]]) -> list[str]:
        """A list of the caller's own: the disjoint sorted ``runs`` in
        entry-id order (one sort merges them), less any tombstoned id."""
        if len(runs) == 1:
            ids = runs[0].copy()
        else:
            ids = []
            for run in runs:
                ids += run
            ids.sort()
        if self.tombstones:
            ids = [eid for eid in ids if eid not in self.tombstones]
        return ids

    def time_buckets(self, lower: float, upper: float) -> list[str]:
        """Bucket values present in the index that intersect the range."""
        if upper < lower:
            return []
        lo_b, hi_b = int(lower // TIME_BUCKET_S), int(upper // TIME_BUCKET_S)
        if 0 <= lo_b and hi_b < _BUCKET_ID_LIMIT:
            lo_key = (_POSTING, "time", f"{lo_b:012d}")
            hi_key = (_POSTING, "time", f"{hi_b:012d}")
        else:  # ids outside the padded range do not sort numerically
            lo_key, hi_key = (_POSTING, "time", ""), (_POSTING, "time\x00", "")
        keys = self._keys
        return [
            value
            for _, _, value in keys[bisect_left(keys, lo_key) : bisect_right(keys, hi_key)]
            if lo_b <= int(value) <= hi_b
        ]

    # -- rebuild ------------------------------------------------------------------

    @classmethod
    def from_world(cls, world, height: int) -> "PeerIndex":
        """Rebuild from committed world state — the one way a peer gets its
        index back (checkpoint adoption, state transfer) and the SAN308
        divergence check.

        Replaying inserts in ``(block, tx)`` version order reproduces the
        exact chained posting digests of incremental maintenance, so the
        rebuilt root matches the live root at the same height. The rebuild
        holds one epoch, ``height - 1``: the history before it is not in
        world state, and the ledger of a peer that adopted a snapshot holds
        no block below it either.

        Like SAN308's rebuild, it does not see ``data:`` deletes: a deleted
        record is gone from world state, so no tombstone is rebuilt. No
        chaincode deletes a ``data:`` key, so this never arises in a
        deployment; callers still skip root comparison for an index that
        carries tombstones.
        """
        out = cls()
        rows = []
        for key, raw in world.range(_DATA_PREFIX, _DATA_END):
            version = world.get_version(key)
            rows.append((version.block, version.tx, key, raw))
        for _block, _tx, key, raw in sorted(rows):
            out._insert(key, raw)
        for key, raw in world.range(_TRUST_PREFIX, _TRUST_END):
            out._apply_trust(key[len(_TRUST_PREFIX):], raw)
        out.height = height
        out._rebuild_tree()
        if height > 0:
            out.epochs[height - 1] = out.root()
        return out
