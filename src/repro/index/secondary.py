"""The authenticated index core: postings, epochs, proofs, rebuilds.

Structure
---------

* A :class:`Posting` per ``(dimension, value)`` pair holds the entry ids
  committed under that value **in commit order**, together with a chained
  digest — ``chain = H(prev_chain || entry_id || record_digest)`` — so an
  append costs O(1) and the whole history of the posting is committed by
  one hash.
* Trust bands are *mutable* (scores move sources between bands), so the
  ``trust_band`` dimension is kept as the current source→score-digest map
  per band rather than an append-only posting.
* The epoch tree is one :class:`~repro.crypto.merkle.MerkleTree` over a
  height leaf, one leaf per posting in ``(dim, value)`` order, the band
  leaves and a tombstone leaf when any exist. It is **maintained in
  place**: :meth:`PeerIndex.apply_block` re-hashes exactly the leaves the
  block touched and their root paths — O(changed postings · log n) — and a
  *new* key (first sight of a camera, a new time bucket) is spliced in at
  its sorted position, recomputing interior nodes from there rightwards.
  The tree is derived state: never persisted, built once (one
  ``MerkleTree`` over all leaves) by ``from_lines`` / ``from_world``.
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
* Checkpoints persist the index as **lines** (:meth:`PeerIndex.to_lines` /
  :meth:`PeerIndex.from_lines`): a small header, each posting as a head
  line plus its entries in runs of ``_RUN`` (full runs immutable, head and
  last run kept on the :class:`Posting` until its next ``append``), and one
  immutable ``[n, epoch, filter]`` line per block. A line is serialised
  when its item changes and joined when a checkpoint is written, so a
  checkpoint costs the postings and blocks changed since the last one. Only
  ``to_lines`` fills these caches; the commit and query paths never do.

The index only ever observes **valid** transactions' write sets, so it is
rebuildable from world state alone (:meth:`PeerIndex.from_world`) — that is
both the recovery path and the SAN308 divergence check.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import MerkleProofError
from repro.fabric.audit import valid_txs
from repro.index.filters import BlockFilter
from repro.util.serialization import canonical_json, from_canonical_json

_DATA_PREFIX = "data:"
_TRUST_PREFIX = "trust:"
_DATA_END = _DATA_PREFIX + "\x7f"
_TRUST_END = _TRUST_PREFIX + "\x7f"

# Entry dimensions (append-only postings). ``trust_band`` is separate.
DIMS = ("source", "camera", "class", "violation", "time")

TRUSTED_THRESHOLD = 0.75
MIN_TRUST_THRESHOLD = 0.25

# Leaf keys ``(rank, dim, value)`` sort in epoch-tree order: the height
# leaf, postings by (dim, value), band leaves, then the tombstone leaf.
_META, _POSTING, _BAND, _TOMBSTONES = range(4)
_LeafKey = tuple[int, str, str]
_META_KEY: _LeafKey = (_META, "_meta", "")
_TOMBSTONES_KEY: _LeafKey = (_TOMBSTONES, "_tombstones", "")

# Entries per checkpoint line of a posting (see Posting.lines).
_RUN = 64

TIME_BUCKET_S = 600  # ten-minute buckets for time-range queries

# Zero-padded time-bucket ids sort chronologically only inside this range.
_BUCKET_ID_LIMIT = 10**12


def time_bucket(timestamp: float) -> str:
    """Zero-padded bucket id so lexicographic order is chronological."""
    return f"{int(timestamp // TIME_BUCKET_S):012d}"


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
    # Checkpoint lines: a full run of _RUN entries never changes again, so
    # its line is kept for good; the head and the partial last run are
    # dropped by the next append.
    _runs: list[bytes] = field(default_factory=list, compare=False, repr=False)
    _ends: tuple[bytes, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.chain:
            self.chain = _seed_chain(self.dim, self.value)

    def append(self, entry_id: str, digest: str) -> None:
        self.chain = _extend_chain(self.chain, entry_id, digest)
        self.entries.append((entry_id, digest))
        self._ends = ()

    def lines(self) -> list[bytes]:
        """Checkpoint lines: a head ``[dim, value, chain, n]``, then the
        ``n`` entries in runs of ``_RUN``, one line per run. Serialised once
        per change, and a change costs the head and the runs it reached,
        however long the posting is. Only :meth:`PeerIndex.to_lines` calls
        this, so an index that is never checkpointed holds no lines."""
        if not self._ends:
            entries, runs = self.entries, self._runs
            full = len(entries) - len(entries) % _RUN
            for start in range(len(runs) * _RUN, full, _RUN):
                runs.append(canonical_json(entries[start : start + _RUN]))
            head = canonical_json([self.dim, self.value, self.chain, len(entries)])
            tail = (canonical_json(entries[full:]),) if full < len(entries) else ()
            self._ends = (head, *tail)
        return [self._ends[0], *self._runs, *self._ends[1:]]

    def leaf_bytes(self) -> bytes:
        return canonical_json(
            {
                "chain": self.chain,
                "dim": self.dim,
                "n": len(self.entries),
                "value": self.value,
            }
        )


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
        leaf = canonical_json(
            {
                "chain": chain,
                "dim": proof.dim,
                "n": len(proof.entries),
                "value": proof.value,
            }
        )
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

    def __init__(
        self,
        trusted_threshold: float = TRUSTED_THRESHOLD,
        min_threshold: float = MIN_TRUST_THRESHOLD,
    ) -> None:
        self.trusted_threshold = trusted_threshold
        self.min_threshold = min_threshold
        self.postings: dict[tuple[str, str], Posting] = {}
        # band -> source -> digest of the current on-chain trust record.
        self.bands: dict[str, dict[str, str]] = {}
        self.band_of: dict[str, str] = {}
        self.height = 0  # blocks applied; epoch n exists once height == n+1
        self.epochs: dict[int, str] = {}
        self.block_filters: dict[int, BlockFilter] = {}
        self.tombstones: set[str] = set()
        self._indexed: set[str] = set()
        # block -> its checkpoint line; a block's epoch and filter never
        # change once applied, so a line is serialised by the first
        # to_lines() after the block and kept for good.
        self._block_lines: dict[int, bytes] = {}
        # The maintained epoch tree: sorted leaf keys, their Merkle tree, and
        # the keys whose leaves the block being applied has changed so far.
        self._dirty: set[_LeafKey] = set()
        self._rebuild_tree()

    # -- band mapping --------------------------------------------------------

    def band_for(self, score: float) -> str:
        if score >= self.trusted_threshold:
            return "trusted"
        if score >= self.min_threshold:
            return "provisional"
        return "untrusted"

    # -- incremental maintenance (commit path) --------------------------------

    def apply_block(self, block) -> str:
        """Index a committed (annotated) block's valid writes; returns the
        new epoch digest, also recorded under ``epochs[block.number]``."""
        tokens: list[str] = []
        for tx in valid_txs(block):
            for write in tx.rwset.writes:
                tokens.extend(self._apply_write(write))
        self.height = block.number + 1
        filt = BlockFilter()
        for token in tokens:
            filt.add(token)
        self.block_filters[block.number] = filt
        self._dirty.add(_META_KEY)
        self._flush_tree()
        digest = self.root()
        self.epochs[block.number] = digest
        return digest

    def _apply_write(self, write) -> list[str]:
        key = write.key
        if key.startswith(_DATA_PREFIX):
            if write.is_delete or write.value is None:
                entry_id = key[len(_DATA_PREFIX):]
                if entry_id in self._indexed:
                    self.tombstones.add(entry_id)
                    self._dirty.add(_TOMBSTONES_KEY)
                return []
            try:
                record = json.loads(write.value)
            except (UnicodeDecodeError, json.JSONDecodeError):
                return []
            if not isinstance(record, dict):
                return []
            entry_id = record.get("entry_id") or key[len(_DATA_PREFIX):]
            return self._insert(entry_id, record, write.value)
        if key.startswith(_TRUST_PREFIX):
            if write.is_delete or write.value is None:
                return []
            return self._apply_trust(key[len(_TRUST_PREFIX):], write.value)
        return []

    def _insert(self, entry_id: str, record: dict, raw: bytes) -> list[str]:
        if entry_id in self._indexed:
            return []  # data records are immutable; re-commit is a no-op
        digest = record_digest(raw)
        tokens = []
        for dim, value in self._record_dims(record):
            posting = self.postings.get((dim, value))
            if posting is None:
                posting = self.postings[(dim, value)] = Posting(dim, value)
            posting.append(entry_id, digest)
            self._dirty.add((_POSTING, dim, value))
            tokens.append(f"{dim}={value}")
        self._indexed.add(entry_id)
        return tokens

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
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            dims.append(("time", time_bucket(ts)))
        classes, violations = set(), set()
        if isinstance(metadata, dict):
            for detection in metadata.get("detections") or ():
                if isinstance(detection, dict) and detection.get("vehicle_class"):
                    classes.add(str(detection["vehicle_class"]))
            for violation in metadata.get("violations") or ():
                if isinstance(violation, dict) and violation.get("violation_type"):
                    violations.add(str(violation["violation_type"]))
        dims.extend(("class", c) for c in sorted(classes))
        dims.extend(("violation", v) for v in sorted(violations))
        return dims

    def _apply_trust(self, source_id: str, raw: bytes) -> list[str]:
        try:
            record = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return []
        if not isinstance(record, dict):
            return []
        try:
            score = float(record.get("score", 0.0))
        except (TypeError, ValueError):
            return []
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
        return [f"trust_band={band}"]

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
            return canonical_json({"dim": "_meta", "height": self.height})
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
        flush: re-hash a changed leaf's root path, splice a new key in at its
        sorted position, drop a leaf whose band emptied."""
        keys, tree = self._keys, self._tree
        # Sorted so the hash-call counts profiles fingerprint do not depend
        # on set iteration order.
        for key in sorted(self._dirty):
            leaf = self._leaf(key)
            pos = bisect_left(keys, key)
            present = pos < len(keys) and keys[pos] == key
            if leaf is None:
                if present:
                    del keys[pos]
                    tree.delete(pos)
            elif present:
                tree.update(pos, leaf)
            else:
                keys.insert(pos, key)
                tree.insert(pos, leaf)
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
        """Entry ids under one value, sorted; tombstoned entries excluded.
        ``trust_band`` expands through the member sources' postings."""
        if dim == "trust_band":
            ids: set[str] = set()
            for source in self.bands.get(value, ()):
                posting = self.postings.get(("source", source))
                if posting is not None:
                    ids.update(eid for eid, _ in posting.entries)
            return sorted(ids - self.tombstones)
        posting = self.postings.get((dim, value))
        if posting is None:
            return []
        return sorted(
            {eid for eid, _ in posting.entries if eid not in self.tombstones}
        )

    def lookup_time_range(self, lower: float, upper: float) -> list[str]:
        """Entry ids whose time bucket intersects ``[lower, upper)``."""
        ids: set[str] = set()
        for bucket in self.time_buckets(lower, upper):
            ids.update(eid for eid, _ in self.postings[("time", bucket)].entries)
        return sorted(ids - self.tombstones)

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

    def blocks_possibly_containing(self, dim: str, value: str) -> list[int]:
        """Block numbers whose posting filter admits ``dim=value``."""
        token = f"{dim}={value}"
        return [n for n, f in sorted(self.block_filters.items()) if token in f]

    # -- persistence / rebuild ----------------------------------------------------

    def fresh(self) -> "PeerIndex":
        """An empty index with this one's thresholds (post-wipe state)."""
        return PeerIndex(self.trusted_threshold, self.min_threshold)

    def to_lines(self) -> list[bytes]:
        """The checkpoint form of the index: canonical-JSON lines, free of
        raw newlines, so the durability layer stores them ``\\n``-joined.

        * a header — height, thresholds, bands, tombstones and the two
          section lengths; small, re-serialised every time;
        * each posting's :meth:`Posting.lines` in ``(dim, value)`` order, kept
          on the :class:`Posting` until its next append;
        * one line ``[n, epoch, filter]`` per block, immutable.

        So a checkpoint serialises the postings and blocks changed since the
        previous one and joins the rest. The epoch tree is derived state and
        is not written (:meth:`from_lines` rebuilds it).
        """
        blocks = sorted(self.epochs.keys() | self.block_filters.keys())
        lines = [
            canonical_json(
                {
                    "height": self.height,
                    "thresholds": [self.trusted_threshold, self.min_threshold],
                    "bands": {
                        band: sorted(members.items())
                        for band, members in self.bands.items()
                    },
                    "tombstones": sorted(self.tombstones),
                    "postings": len(self.postings),
                    "blocks": len(blocks),
                }
            )
        ]
        for key in sorted(self.postings):
            lines.extend(self.postings[key].lines())
        block_lines = self._block_lines
        for n in blocks:
            line = block_lines.get(n)
            if line is None:
                filt = self.block_filters.get(n)
                line = block_lines[n] = canonical_json(
                    [n, self.epochs.get(n), None if filt is None else filt.to_doc()]
                )
            lines.append(line)
        return lines

    @classmethod
    def from_lines(cls, lines: list[bytes]) -> "PeerIndex":
        """Inverse of :meth:`to_lines`. Raises ``EncodingError`` /
        ``LookupError`` / ``TypeError`` / ``ValueError`` on a damaged file;
        the caller falls back to :meth:`from_world`."""
        header = from_canonical_json(lines[0])
        trusted, minimum = header["thresholds"]
        out = cls(float(trusted), float(minimum))
        out.height = int(header["height"])
        at = 1
        for _ in range(int(header["postings"])):
            dim, value, chain, n = from_canonical_json(lines[at])
            posting = Posting(dim=dim, value=value, chain=chain)
            runs = lines[at + 1 : at + 1 + -(-int(n) // _RUN)]
            for line in runs:
                posting.entries.extend((e, d) for e, d in from_canonical_json(line))
            if len(posting.entries) != n:
                raise ValueError(f"posting {dim}={value!r} is missing entries")
            at += 1 + len(runs)
            out.postings[(dim, value)] = posting
            out._indexed.update(e for e, _ in posting.entries)
        if len(lines) - at != int(header["blocks"]):
            raise ValueError("index file does not hold the lines its header counts")
        for band, members in header["bands"].items():
            out.bands[band] = {s: d for s, d in members}
            for s in out.bands[band]:
                out.band_of[s] = band
        out.tombstones = set(header["tombstones"])
        for line in lines[at:]:
            n, epoch, filt = from_canonical_json(line)
            if epoch is not None:
                out.epochs[int(n)] = epoch
            if filt is not None:
                out.block_filters[int(n)] = BlockFilter.from_doc(filt)
        out._rebuild_tree()
        return out

    @classmethod
    def from_world(
        cls,
        world,
        height: int,
        trusted_threshold: float = TRUSTED_THRESHOLD,
        min_threshold: float = MIN_TRUST_THRESHOLD,
    ) -> "PeerIndex":
        """Rebuild from committed world state (recovery / divergence check).

        Replaying inserts in ``(block, tx)`` version order reproduces the
        exact chained posting digests of incremental maintenance, so the
        rebuilt root matches the live root at the same height. Per-block
        filters are approximated from the data records' versions (trust
        tokens are not recoverable per block from current state); deleted
        records are invisible here, so callers skip root comparison for
        indexes carrying tombstones.
        """
        out = cls(trusted_threshold, min_threshold)
        rows = []
        for key, raw in world.range(_DATA_PREFIX, _DATA_END):
            version = world.get_version(key)
            rows.append((version.block, version.tx, key, raw))
        tokens_by_block: dict[int, list[str]] = {}
        for block_n, _tx, key, raw in sorted(rows):
            try:
                record = json.loads(raw)
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if not isinstance(record, dict):
                continue
            entry_id = record.get("entry_id") or key[len(_DATA_PREFIX):]
            tokens_by_block.setdefault(block_n, []).extend(
                out._insert(entry_id, record, raw)
            )
        for key, raw in world.range(_TRUST_PREFIX, _TRUST_END):
            out._apply_trust(key[len(_TRUST_PREFIX):], raw)
        for block_n, tokens in tokens_by_block.items():
            filt = BlockFilter()
            for token in tokens:
                filt.add(token)
            out.block_filters[block_n] = filt
        out.height = height
        out._rebuild_tree()
        if height > 0:
            out.epochs[height - 1] = out.root()
        return out
