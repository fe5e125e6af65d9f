"""Byte counts at the I/O primitives, for cost gates that count exactly.

:func:`counting_io` counts, while its block runs, the bytes fed to
``hashlib.sha256`` and the bytes handed to any
:class:`~repro.storage.DurableStore` (log appends and file writes). The
counts are taken at the primitives, not reported by the code under test, so
they hold whichever path reaches them — a gate built on them fails for a
cost nobody thought to report.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Iterator

from repro.storage.durable import DurableStore


class _CountedHash:
    """A sha256 object that adds what it is fed to ``counts["hashed"]``."""

    def __init__(self, inner, counts: dict[str, int]) -> None:
        self._inner = inner
        self._counts = counts

    def update(self, data) -> None:
        self._counts["hashed"] += len(data)
        self._inner.update(data)

    def digest(self) -> bytes:
        return self._inner.digest()

    def hexdigest(self) -> str:
        return self._inner.hexdigest()


@contextmanager
def counting_io() -> Iterator[dict[str, int]]:
    """``{"hashed": bytes, "written": bytes}``, filled in as the block runs."""
    counts = {"hashed": 0, "written": 0}
    sha256 = hashlib.sha256
    append, write_file = DurableStore.append, DurableStore.write_file

    def counted_sha256(data=b"", **kwargs):
        counts["hashed"] += len(data)
        return _CountedHash(sha256(data, **kwargs), counts)

    def counted_append(store, log, payload):
        counts["written"] += len(payload)
        append(store, log, payload)

    def counted_write_file(store, name, content):
        counts["written"] += len(content)
        write_file(store, name, content)

    hashlib.sha256 = counted_sha256
    DurableStore.append = counted_append
    DurableStore.write_file = counted_write_file
    try:
        yield counts
    finally:
        hashlib.sha256 = sha256
        DurableStore.append = append
        DurableStore.write_file = write_file
