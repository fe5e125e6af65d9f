"""Chunkers: split file bytes into blocks for the Merkle DAG.

Two strategies, mirroring IPFS:

* :class:`FixedSizeChunker` — go-ipfs's default (256 KiB chunks). O(1) per
  chunk; chunk boundaries shift on insertion, hurting dedup.
* :class:`RollingChunker` — content-defined chunking (CDC). Cut points are
  chosen where a rolling hash of the last ``window`` bytes hits a boundary
  condition, so an insertion only reshuffles nearby chunks and identical
  regions of different files dedup to identical blocks.

The rolling hash here is a windowed sum of per-byte gear values, computed
with a vectorized NumPy prefix-sum rather than a byte-at-a-time loop: the
whole file's boundary predicate is evaluated in a handful of array ops,
which keeps CDC from dominating the storage path that Figure 5 measures.
"""

from __future__ import annotations

from typing import Iterator, Protocol

import numpy as np

from repro.util.rng import rng_for

DEFAULT_CHUNK_SIZE = 256 * 1024  # go-ipfs default


class Chunker(Protocol):
    """Splits a byte string into consecutive chunks covering it exactly."""

    def chunks(self, data: bytes) -> Iterator[bytes]:
        ...


class FixedSizeChunker:
    """Split into fixed-size chunks (last one may be short)."""

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

    def chunks(self, data: bytes) -> Iterator[bytes]:
        if not data:
            yield b""
            return
        for start in range(0, len(data), self.chunk_size):
            yield data[start : start + self.chunk_size]


class RollingChunker:
    """Content-defined chunking via a windowed gear-hash boundary predicate.

    A byte position ``i`` ends a chunk when the sum of gear values over the
    trailing ``window`` bytes is ``0 mod mask+1`` — on random data this fires
    with probability ``1/(mask+1)`` per position, giving a mean chunk size of
    roughly ``mask+1`` bytes. ``min_size``/``max_size`` clamp the
    pathological cases (a long run with no boundary, or boundaries every few
    bytes in low-entropy data).
    """

    def __init__(
        self,
        target_size: int = DEFAULT_CHUNK_SIZE,
        min_size: int | None = None,
        max_size: int | None = None,
        window: int = 48,
        seed: int = 0x1BF5,
    ) -> None:
        if target_size < 2:
            raise ValueError("target_size must be >= 2")
        self.target_size = target_size
        self.min_size = min_size if min_size is not None else target_size // 4
        self.max_size = max_size if max_size is not None else target_size * 4
        if not 0 < self.min_size <= self.max_size:
            raise ValueError("need 0 < min_size <= max_size")
        if self.min_size > target_size or target_size > self.max_size:
            raise ValueError("need min_size <= target_size <= max_size")
        self.window = window
        # Gear table: one random 64-bit value per byte value. Seeded so the
        # same content always chunks identically across runs and machines.
        self._gear = rng_for(seed, "chunker", "gear").integers(
            0, 2**62, size=256, dtype=np.int64
        )
        # Boundary fires when windowed sum mod mask_mod == 0.
        self._mask_mod = max(2, target_size - self.window)

    def _boundaries(self, data: bytes) -> np.ndarray:
        """Candidate cut positions (exclusive end offsets), vectorized."""
        values = self._gear[np.frombuffer(data, dtype=np.uint8)]
        prefix = np.concatenate(([0], np.cumsum(values)))
        w = min(self.window, len(data))
        # windowed[i] = sum of gear values for bytes (i-w, i]; defined for i >= w.
        windowed = prefix[w:] - prefix[:-w]
        hits = np.nonzero(windowed % self._mask_mod == 0)[0] + w
        return hits

    def chunks(self, data: bytes) -> Iterator[bytes]:
        if not data:
            yield b""
            return
        hits = self._boundaries(data)
        start = 0
        hit_idx = 0
        n = len(data)
        while start < n:
            lo = start + self.min_size
            hi = min(start + self.max_size, n)
            # First boundary candidate in [lo, hi); otherwise cut at hi.
            hit_idx = int(np.searchsorted(hits, lo, side="left"))
            cut = hi
            if hit_idx < len(hits) and hits[hit_idx] < hi:
                cut = int(hits[hit_idx])
            if n - cut < 1 and cut != n:  # pragma: no cover - defensive
                cut = n
            yield data[start:cut]
            start = cut

