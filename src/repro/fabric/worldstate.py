"""World state: the versioned key-value view of the ledger.

Fabric's state DB holds, for every key, the value written by the most
recent valid transaction plus that transaction's *version* — the
``(block, tx)`` coordinate of the write. Versions are what make optimistic
concurrency (MVCC) work: endorsement records the version of every key it
read, and commit rejects the transaction if any of those keys has since
moved. A separate history index (Fabric's history DB) records every write
per key for provenance queries.

Composite keys pack an index name and attribute parts into one range-
scannable string using the same ``\\x00`` framing Fabric uses.

Checkpoints and the state digest read the live state as one canonical
*snapshot line* per key (``[key, value, block, tx]``, the value as its
UTF-8 text or, for bytes that are not UTF-8, ``{"base64": ...}``). A line is
serialised when a checkpoint first needs it and kept until the key is next
written (see :meth:`WorldState.snapshot_lines`), and the world remembers
which keys were written since the last checkpoint
(:meth:`WorldState.take_changed`), so a delta checkpoint reads only those.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _enc

from repro.errors import LedgerError
from repro.util.serialization import canonical_json, value_to_json

# Composite keys: \x00 + objectType + \x00 + attr1 + \x00 + attr2 + ...
COMPOSITE_SEP = "\x00"


@dataclass(frozen=True, order=True)
class Version:
    """Coordinate of the transaction that last wrote a key."""

    block: int
    tx: int

    def to_dict(self) -> dict:
        return {"block": self.block, "tx": self.tx}


@dataclass(frozen=True)
class HistoryEntry:
    """One write (or delete) of a key, for provenance queries."""

    tx_id: str
    version: Version
    value: bytes | None  # None marks a delete
    timestamp: float

    @property
    def is_delete(self) -> bool:
        return self.value is None


@dataclass
class WorldState:
    """Versioned KV store with range scans and per-key history."""

    _values: dict[str, bytes] = field(default_factory=dict)
    _versions: dict[str, Version] = field(default_factory=dict)
    _sorted_keys: list[str] = field(default_factory=list)
    _history: dict[str, list[HistoryEntry]] = field(default_factory=dict)
    # key -> its snapshot line, for keys unchanged since the last
    # snapshot_lines() (apply_write is the only writer of the maps above);
    # derived state, so it takes no part in ==.
    _lines: dict[str, bytes] = field(default_factory=dict, compare=False, repr=False)
    # Keys written since the last take_changed(); None until its first call,
    # so a world that is never checkpointed tracks nothing.
    _changed: set[str] | None = field(default=None, compare=False, repr=False)

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        return self._values.get(key)

    def get_version(self, key: str) -> Version | None:
        return self._versions.get(key)

    def has(self, key: str) -> bool:
        return key in self._values

    def range(self, start: str = "", end: str = "") -> list[tuple[str, bytes]]:
        """Keys in ``[start, end)`` in lexicographic order; empty bound = open."""
        lo = bisect.bisect_left(self._sorted_keys, start) if start else 0
        hi = bisect.bisect_left(self._sorted_keys, end) if end else len(self._sorted_keys)
        return [(k, self._values[k]) for k in self._sorted_keys[lo:hi]]

    def history(self, key: str) -> list[HistoryEntry]:
        """All writes to ``key``, oldest first (valid transactions only)."""
        return list(self._history.get(key, ()))

    def keys(self) -> list[str]:
        return list(self._sorted_keys)

    def __len__(self) -> int:
        return len(self._values)

    # -- writes (committer only) -------------------------------------------------

    def apply_write(
        self,
        key: str,
        value: bytes | None,
        version: Version,
        tx_id: str,
        timestamp: float,
    ) -> None:
        """Apply one validated write. ``value=None`` deletes the key."""
        current = self._versions.get(key)
        if current is not None and version < current:
            raise LedgerError(
                f"write to {key!r} with stale version {version} < {current}"
            )
        self._lines.pop(key, None)  # the one invalidation site: puts and deletes
        if self._changed is not None:
            self._changed.add(key)
        if value is None:
            if key in self._values:
                del self._values[key]
                idx = bisect.bisect_left(self._sorted_keys, key)
                if idx < len(self._sorted_keys) and self._sorted_keys[idx] == key:
                    self._sorted_keys.pop(idx)
            self._versions[key] = version  # deletes still advance the version
        else:
            if key not in self._values:
                bisect.insort(self._sorted_keys, key)
            self._values[key] = value
            self._versions[key] = version
        self._history.setdefault(key, []).append(
            HistoryEntry(tx_id=tx_id, version=version, value=value, timestamp=timestamp)
        )

    # -- snapshot lines (checkpoints, state digest) -----------------------------------

    def _line(self, key: str) -> bytes:
        """``canonical_json([key, value, block, tx])`` with the value as
        :func:`value_to_json` renders it, written out."""
        version, value = self._versions[key], value_to_json(self._values[key])
        text = _enc(value) if type(value) is str else canonical_json(value).decode()
        return f"[{_enc(key)},{text},{version.block},{version.tx}]".encode()

    def snapshot_lines(self, keys: list[str] | None = None) -> tuple[bytes, ...]:
        """One canonical ``[key, value, block, tx]`` line per live key, in
        key order — the body of a :class:`~repro.fabric.snapshot.Snapshot` —
        or per key of ``keys``, each of them live.

        This is the only call that fills the line cache: a line serialised
        here is kept until :meth:`apply_write` next touches its key, so the
        next checkpoint re-serialises only what changed in between, and a
        deployment that never checkpoints holds no lines. Memoising inside a
        read is safe because it runs only on the single-threaded commit /
        recovery path (``DurabilityManager.checkpoint_peer``, state
        transfer); query threads never reach it.
        """
        lines = self._lines
        out = []
        for key in self._sorted_keys if keys is None else keys:
            line = lines.get(key)
            if line is None:
                line = lines[key] = self._line(key)
            out.append(line)
        return tuple(out)

    def take_changed(self) -> list[str] | None:
        """The keys :meth:`apply_write` touched since the previous call, in
        key order, and start the next interval. ``None`` on a world's first
        call: before it nothing was tracked, so every key counts as changed."""
        changed, self._changed = self._changed, set()
        return None if changed is None else sorted(changed)

    def digest(self) -> str:
        """sha256 over the snapshot lines in key order: the deterministic
        digest of (key, value, version) of the live state. Reads cached
        lines and computes a missing one without storing it."""
        h = hashlib.sha256()
        lines = self._lines
        for key in self._sorted_keys:
            h.update(lines.get(key) or self._line(key))
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Composite keys
# ---------------------------------------------------------------------------


def make_composite_key(object_type: str, attributes: list[str]) -> str:
    """Pack an index name and attributes into one scannable key."""
    if COMPOSITE_SEP in object_type:
        raise LedgerError("object_type must not contain the separator")
    for attr in attributes:
        if COMPOSITE_SEP in attr:
            raise LedgerError("composite attributes must not contain the separator")
    return COMPOSITE_SEP + object_type + COMPOSITE_SEP + COMPOSITE_SEP.join(attributes) + (
        COMPOSITE_SEP if attributes else ""
    )


def composite_prefix_range(object_type: str, attributes: list[str]) -> tuple[str, str]:
    """(start, end) bounds scanning all keys under a composite prefix.

    Every key under the prefix continues with the ``\\x00`` separator, so
    bumping the prefix's final separator to ``\\x01`` yields an exclusive
    upper bound that no continuation can exceed.
    """
    if attributes:
        prefix = (
            COMPOSITE_SEP + object_type + COMPOSITE_SEP + COMPOSITE_SEP.join(attributes) + COMPOSITE_SEP
        )
    else:
        prefix = COMPOSITE_SEP + object_type + COMPOSITE_SEP
    return prefix, prefix[:-1] + "\x01"
