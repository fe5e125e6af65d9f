"""Canonical serialization for hashed and signed structures.

Everything the framework hashes or signs (transactions, blocks, metadata
records, provenance entries) is first rendered to *canonical JSON*: UTF-8,
sorted keys, no whitespace, and a restricted value domain (no floats with
NaN/Inf, no non-string keys, no ints beyond 64 bits). Canonicality matters
because two honest nodes must derive the identical byte string — and hence
identical hash — from the same logical record; Python's default
``json.dumps`` does not guarantee that.

``orjson`` renders every canonical form and parses every byte string the
program rendered itself (DESIGN.md, "One renderer"). :func:`canonical_json`
renders, then checks; only a value that fails the check is walked in Python
(:func:`_check`). A form whose constructor fixes its field types skips the
check (:func:`render`, or ``checked=False``).

:func:`once` is the serialize-once primitive: a transaction in flight is one
frozen object that the orderer, four validators and every committing peer
each ask for the same canonical forms (and signature verdicts), and a frozen
value's form cannot change, so it is computed by the first to ask.
:func:`canonical_json_splice` lets a form that contains other remembered
forms (the signed proposal and the rwset inside the envelope) reuse their
bytes instead of rendering them again.

A value a transaction writes travels as JSON text wherever it is carried —
rwset, envelope, WAL, snapshot line — through one pair of helpers,
:func:`value_to_json` and :func:`value_from_json`.
"""

from __future__ import annotations

import base64
import math
import threading
from typing import Any, Callable, TypeVar

import orjson

from repro.errors import EncodingError
from repro.obs.prof import profiled

_SCALARS = (str, int, bool, type(None))
_PLAIN = frozenset(_SCALARS)
_dumps, _loads, _SORTED = orjson.dumps, orjson.loads, orjson.OPT_SORT_KEYS
_INDENTED = _SORTED | orjson.OPT_INDENT_2
_TOO_DEEP = b"\n" + b" " * 2 * 65

T = TypeVar("T")

# Enough for the largest batch in flight (a 64-transaction block, ~9 forms
# per transaction at two endorsers, 576 in all: the signing payload and the
# creator's signature verdict, the envelope (also its WAL document), the
# transaction's endorsed payload and its endorsement verdicts, and an endorsed
# payload and a rendered rwset per endorser) and flat in ledger height: a
# chain walk over old blocks recomputes their forms and pushes out the
# oldest entries, nothing grows.
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
    # A child of an exact scalar type is accepted here, not by a call per
    # child; every other child (a float, a container, a str subclass) and any
    # child past the depth limit still takes the call, so the same inputs
    # raise the same errors.
    child = depth + 1
    if isinstance(value, (list, tuple)):
        for item in value:
            if child > 64 or type(item) not in _PLAIN:
                _check(item, child)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"non-string dict key {key!r}")
            if child > 64 or type(item) not in _PLAIN:
                _check(item, child)
        return
    raise EncodingError(f"type {type(value).__name__} is not canonically serializable")


def render(value: Any) -> bytes:
    """``value``'s canonical JSON, unchecked and unprofiled; what orjson
    refuses (an int beyond 64 bits, a non-``str`` key, a lone surrogate, a
    type it does not know) raises :class:`EncodingError`."""
    try:
        return _dumps(value, option=_SORTED)
    except orjson.JSONEncodeError as exc:
        raise EncodingError(f"not canonically serializable: {exc}") from exc


def _checked(value: Any) -> bytes:
    """``value`` rendered; walked only when orjson refuses it, or its rendering
    does not parse back to it (a tuple, NaN, a UUID) or nests over 64 levels."""
    try:
        out = _dumps(value, option=_SORTED)
    except orjson.JSONEncodeError as exc:
        _check(value)
        raise EncodingError(f"not canonically serializable: {exc}") from exc
    # Containers opened; two replaces cost half of two ``bytes.count`` calls.
    opened = 2 * len(out) - len(out.replace(b"[", b"")) - len(out.replace(b"{", b""))
    # Over 64 of them, the nesting is measured: indented two spaces a level,
    # a value 65 levels down starts a line 130 spaces in.
    if (opened > 64 and _TOO_DEEP in _dumps(value, option=_INDENTED)) or _loads(out) != value:
        _check(value)
    return out


def canonical_json(value: Any, checked: bool = True) -> bytes:
    """Render ``value`` to canonical JSON bytes (sorted keys, compact);
    ``checked=False`` renders a value whose constructor fixed its types."""
    with profiled("serialize.canonical_json") as pf:
        out = _checked(value) if checked else render(value)
        pf.add_bytes(len(out))
        return out


def canonical_json_splice(value: dict, fragments: dict[str, bytes]) -> bytes:
    """``canonical_json({**value, **{k: v}})`` for values ``v`` already
    rendered: ``fragments[k]`` is ``canonical_json(v)``, so ``v`` is not
    checked or rendered again. The keys of ``value`` are rendered in runs
    between the fragment keys in sorted order and each fragment is spliced
    in as it is; the profile counts the rendered bytes, not the spliced
    ones. No key of ``fragments`` may be in ``value``."""
    with profiled("serialize.canonical_json") as pf:
        parts: list[bytes] = []
        run: dict = {}
        # key=str: a non-str key sorts, then its run refuses it.
        for key in sorted(value.keys() | fragments.keys(), key=str):
            fragment = fragments.get(key)
            if fragment is None:
                run[key] = value[key]
                continue
            if run:
                parts.append(_checked(run)[1:-1])
                run = {}
            parts.append(render(key) + b":" + fragment)
        if run:
            parts.append(_checked(run)[1:-1])
        out = b"{" + b",".join(parts) + b"}"
        pf.add_bytes(len(out) - sum(map(len, fragments.values())))
        return out


def value_to_json(value: bytes) -> str | dict:
    """A written value as JSON: its UTF-8 text, or ``{"base64": ...}`` for
    bytes that are not UTF-8. ``value_from_json`` is the inverse."""
    try:
        return value.decode("utf-8")
    except UnicodeDecodeError:
        return {"base64": base64.b64encode(value).decode("ascii")}


def value_from_json(doc: Any) -> bytes:
    """The value :func:`value_to_json` rendered as ``doc``. Anything else —
    a lone surrogate, bad base64, another shape — raises :class:`ValueError`
    (:class:`EncodingError` for the shape)."""
    if type(doc) is str:
        return doc.encode("utf-8")
    if type(doc) is dict and doc.keys() == {"base64"} and type(doc["base64"]) is str:
        return base64.b64decode(doc["base64"], validate=True)
    raise EncodingError(f"not a written value: {type(doc).__name__}")


def from_canonical_json(data: bytes) -> Any:
    """Parse canonical JSON bytes back into Python values."""
    with profiled("serialize.decode", n_bytes=len(data)):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError as exc:
            raise EncodingError(f"invalid canonical JSON: {exc}") from exc
