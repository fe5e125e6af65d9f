"""Canonical serialization for hashed and signed structures.

Everything the framework hashes or signs (transactions, blocks, metadata
records, provenance entries) is first rendered to *canonical JSON*: UTF-8,
sorted keys, no whitespace, and a restricted value domain (no floats with
NaN/Inf, no non-string keys). Canonicality matters because two honest nodes
must derive the identical byte string — and hence identical hash — from the
same logical record; Python's default ``json.dumps`` does not guarantee that.

:func:`once` is the serialize-once primitive: a transaction in flight is one
frozen object that the orderer, four validators and every committing peer
each ask for the same canonical forms, and a frozen value's form cannot
change, so it is computed by the first to ask.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Callable, TypeVar

from repro.errors import EncodingError
from repro.obs.prof import profiled

_SCALARS = (str, int, bool, type(None))
# json.dumps builds a new encoder per call when given non-default arguments.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)

T = TypeVar("T")

# Enough for the largest batch in flight (a 64-transaction block, ~7 forms
# per transaction) and flat in ledger height: a chain walk over old blocks
# recomputes their forms and pushes out the oldest entries, nothing grows.
ONCE_MAX_ENTRIES = 1024
# (id(owner), form) -> (owner, value). The entry holds its owner, so the id
# cannot be reused while the entry lives; oldest entry out first.
_once: dict[tuple[int, str], tuple[Any, Any]] = {}
_once_lock = threading.Lock()


def once(owner: Any, form: str, compute: Callable[[], T]) -> T:
    """``compute()``, remembered for this ``owner`` object and ``form``.

    The contract is the caller's: ``owner`` is a frozen value and ``compute``
    a pure function of it. The key is the object's identity, never its
    equality, so a ``dataclasses.replace`` copy (an altered transaction, in
    every tamper test and in the ledger sanitizer's oracle) always computes
    afresh, and an evicted entry costs only a recompute. The lock covers the
    insert and the eviction, not ``compute`` — forms nest
    (``envelope_bytes`` asks for ``signing_payload``).
    """
    key = (id(owner), form)
    hit = _once.get(key)
    if hit is not None:
        return hit[1]
    value = compute()
    with _once_lock:
        _once[key] = (owner, value)
        if len(_once) > ONCE_MAX_ENTRIES:
            del _once[next(iter(_once))]
    return value


def _check(value: Any, depth: int = 0) -> None:
    if depth > 64:
        raise EncodingError("canonical JSON nesting exceeds 64 levels")
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise EncodingError("NaN/Inf are not canonically serializable")
        return
    if isinstance(value, _SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check(item, depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"non-string dict key {key!r}")
            _check(item, depth + 1)
        return
    raise EncodingError(f"type {type(value).__name__} is not canonically serializable")


def canonical_json(value: Any) -> bytes:
    """Render ``value`` to canonical JSON bytes (sorted keys, compact)."""
    with profiled("serialize.canonical_json") as pf:
        _check(value)
        out = _ENCODER.encode(value).encode("utf-8")
        pf.add_bytes(len(out))
        return out


def from_canonical_json(data: bytes) -> Any:
    """Parse canonical JSON bytes back into Python values."""
    with profiled("serialize.decode", n_bytes=len(data)):
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise EncodingError(f"invalid canonical JSON: {exc}") from exc
