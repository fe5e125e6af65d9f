"""Simulated crash-durable storage: append-only logs plus atomic files.

Real nodes survive restarts because their ledgers live on disk; everything
in this reproduction is in-memory, so "crash" faults used to be a polite
fiction — the state silently survived. :class:`DurableStore` models the
disk honestly enough that recovery code has something real to recover
from:

* **Two durability tiers.** ``append`` lands bytes in an *unsynced* buffer
  (the OS page cache); ``sync`` promotes everything to the *synced* area
  (the platter). :meth:`crash` discards the unsynced tier — exactly the
  data an fsync-less process loses on power failure.
* **Torn writes.** ``crash(torn=True)`` additionally flushes the first
  *half* of the oldest unsynced record to the synced log, modelling a
  sector-granularity write interrupted mid-frame. Readers detect the torn
  tail by framing and drop it.
* **Injectable media faults.** :meth:`damage_tail` truncates or corrupts
  the synced log in place (bit-rot, a bad sector), for chaos faults that
  exercise the WAL-damage recovery path.
* **Atomic file writes.** ``write_file`` and ``delete_file`` stage a change
  that only becomes visible at the next ``sync`` — the write-temp-then-rename
  idiom, so the files one ``sync`` changes are either all the old ones or
  all the new ones.

Log framing — each record is::

    [4-byte big-endian payload length][8-byte sha256(payload) prefix][payload]

On read, an incomplete final frame is a *torn tail* (silently truncated,
reported out-of-band); a complete frame whose checksum does not match is
*corruption* and raises :class:`~repro.errors.WalCorruptionError` — the
caller must fall back to state transfer, because nothing after the bad
frame can be trusted.
"""

from __future__ import annotations

import hashlib

from repro.errors import StorageError, WalCorruptionError

_LEN_BYTES = 4
_CSUM_BYTES = 8
_HEADER_BYTES = _LEN_BYTES + _CSUM_BYTES

# damage_tail modes
TRUNCATE = "truncate"
CORRUPT = "corrupt"


def _frame(payload: bytes) -> bytes:
    return (
        len(payload).to_bytes(_LEN_BYTES, "big")
        + hashlib.sha256(payload).digest()[:_CSUM_BYTES]
        + payload
    )


class DurableStore:
    """One node's simulated disk: named append-only logs + named files."""

    def __init__(self) -> None:
        self._synced_logs: dict[str, bytearray] = {}
        self._unsynced_logs: dict[str, bytearray] = {}
        self._files: dict[str, bytes] = {}
        self._pending_files: dict[str, bytes | None] = {}  # None: a delete
        self.syncs = 0

    # -- writes ---------------------------------------------------------------

    def append(self, log: str, payload: bytes) -> None:
        """Append one framed record; durable only after the next sync."""
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError(f"WAL payload must be bytes, got {type(payload).__name__}")
        self._unsynced_logs.setdefault(log, bytearray()).extend(_frame(bytes(payload)))

    def write_file(self, name: str, content: bytes) -> None:
        """Stage a whole-file replacement; visible only after the next sync."""
        self._pending_files[name] = bytes(content)

    def delete_file(self, name: str) -> None:
        """Stage a file's removal; like a write, it lands at the next sync."""
        self._pending_files[name] = None

    def truncate_log(self, log: str) -> None:
        """Drop a log entirely (both tiers) — e.g. after a covering checkpoint."""
        self._synced_logs.pop(log, None)
        self._unsynced_logs.pop(log, None)

    def sync(self) -> None:
        """fsync everything: promote unsynced log bytes and pending files."""
        for log, buf in self._unsynced_logs.items():
            self._synced_logs.setdefault(log, bytearray()).extend(buf)
        self._unsynced_logs = {}
        for name, content in self._pending_files.items():
            if content is None:
                self._files.pop(name, None)
            else:
                self._files[name] = content
        self._pending_files = {}
        self.syncs += 1

    # -- crash / media faults -------------------------------------------------

    def crash(self, torn: bool = False) -> None:
        """Power-cut semantics: the unsynced tier is gone.

        With ``torn=True`` the first half of the oldest unsynced frame of
        each log *did* reach the platter — a torn tail the reader must
        detect and drop.
        """
        if torn:
            for log in sorted(self._unsynced_logs):
                buf = self._unsynced_logs[log]
                if not buf:
                    continue
                length = int.from_bytes(buf[:_LEN_BYTES], "big")
                frame_len = _HEADER_BYTES + length
                keep = max(1, frame_len // 2)
                self._synced_logs.setdefault(log, bytearray()).extend(buf[:keep])
        self._unsynced_logs = {}
        self._pending_files = {}

    def damage_tail(self, log: str, mode: str) -> str:
        """Injected media fault against the *synced* log bytes.

        ``truncate`` chops the log mid-way through its last frame (lost
        sectors); ``corrupt`` flips bits inside the first frame's payload
        (rot under an intact length header, so the checksum catches it).
        Returns a short description of what was done, or ``"no-op"`` when
        the log has nothing to damage. The description counts frames, not
        bytes: these strings enter chaos fingerprints, which should not move
        when a record's encoding does.
        """
        data = self._synced_logs.get(log)
        if not data:
            return "no-op (log empty)"
        if mode == TRUNCATE:
            offsets = self._frame_offsets(data)
            last_start = offsets[-1] if offsets else 0
            cut = last_start + max(1, (len(data) - last_start) // 2)
            del data[cut:]
            return f"truncated {log!r} mid-way through frame {len(offsets)}"
        if mode == CORRUPT:
            length = int.from_bytes(data[:_LEN_BYTES], "big")
            if length == 0 or len(data) < _HEADER_BYTES + 1:
                return "no-op (nothing to corrupt)"
            target = _HEADER_BYTES + min(length, len(data) - _HEADER_BYTES) // 2
            data[target] ^= 0xFF
            return f"flipped a payload byte in frame 1 of {log!r}"
        raise StorageError(f"unknown damage mode {mode!r}")

    def corrupt_file(self, name: str) -> str:
        """Flip a byte in the middle of a synced file (checkpoint rot)."""
        content = self._files.get(name)
        if not content:
            return "no-op (file missing or empty)"
        buf = bytearray(content)
        buf[len(buf) // 2] ^= 0xFF
        self._files[name] = bytes(buf)
        return f"flipped a byte in file {name!r}"

    # -- reads ----------------------------------------------------------------

    def read_log(self, log: str) -> tuple[list[bytes], str]:
        """All durable records of a log, plus tail damage (``""``/``"torn"``).

        Raises :class:`WalCorruptionError` on a checksum mismatch in a
        complete frame — unlike a torn tail, mid-log corruption means the
        medium lies and replay must not proceed.
        """
        data = bytes(self._synced_logs.get(log, b""))
        records: list[bytes] = []
        off, n = 0, len(data)
        while off < n:
            if off + _HEADER_BYTES > n:
                return records, "torn"
            length = int.from_bytes(data[off : off + _LEN_BYTES], "big")
            end = off + _HEADER_BYTES + length
            if end > n:
                return records, "torn"
            payload = data[off + _HEADER_BYTES : end]
            expect = data[off + _LEN_BYTES : off + _HEADER_BYTES]
            if hashlib.sha256(payload).digest()[:_CSUM_BYTES] != expect:
                raise WalCorruptionError(
                    f"checksum mismatch in log {log!r} at offset {off}"
                )
            records.append(payload)
            off = end
        return records, ""

    def read_file(self, name: str) -> bytes | None:
        return self._files.get(name)

    def log_bytes(self, log: str, synced_only: bool = True) -> int:
        total = len(self._synced_logs.get(log, b""))
        if not synced_only:
            total += len(self._unsynced_logs.get(log, b""))
        return total

    def logs(self) -> list[str]:
        return sorted(set(self._synced_logs) | set(self._unsynced_logs))

    def files(self) -> list[str]:
        return sorted(self._files)

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _frame_offsets(data: bytes) -> list[int]:
        """Start offsets of the complete frames in *data* (no validation)."""
        offsets: list[int] = []
        off, n = 0, len(data)
        while off + _HEADER_BYTES <= n:
            length = int.from_bytes(data[off : off + _LEN_BYTES], "big")
            end = off + _HEADER_BYTES + length
            if end > n:
                break
            offsets.append(off)
            off = end
        return offsets
