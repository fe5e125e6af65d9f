"""Canonical JSON as it was rendered before orjson: a Python domain walk
(``check``), then the stdlib encoder (``render``). The oracle for
:mod:`repro.util.serialization`.

:func:`expected` is what ``canonical_json`` must return for a value today:
``render``'s bytes wherever no deliberate contract change applies, and the
same refusal otherwise. The four changes:

1. a float ``repr`` writes in exponent form is written as orjson writes it:
   the same digits, decimal for 1e-5 <= |x| < 1e-4 (``0.00001``) and an
   exponent without ``+`` or leading zeros beyond (``1e16``, ``1e-7``);
2. an int outside [-2**63, 2**64) is refused;
3. a ``str``-subclass dict key (a ``str`` Enum member) is refused;
4. a lone surrogate is refused as :class:`EncodingError`, not as
   :class:`UnicodeEncodeError`.
"""

from __future__ import annotations

import json
import math
from json.encoder import _make_iterencode, encode_basestring
from typing import Any

from repro.errors import EncodingError

_SCALARS = (str, int, bool, type(None))
_PLAIN = frozenset(_SCALARS)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def check(value: Any, depth: int = 0) -> None:
    """The domain walk the renderer ran on every call before orjson."""
    if depth > 64:
        raise EncodingError("canonical JSON nesting exceeds 64 levels")
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise EncodingError("NaN/Inf are not canonically serializable")
        return
    if isinstance(value, _SCALARS):
        return
    child = depth + 1
    if isinstance(value, (list, tuple)):
        for item in value:
            if child > 64 or type(item) not in _PLAIN:
                check(item, child)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"non-string dict key {key!r}")
            if child > 64 or type(item) not in _PLAIN:
                check(item, child)
        return
    raise EncodingError(f"type {type(value).__name__} is not canonically serializable")


def render(value: Any) -> bytes:
    """The former ``canonical_json``."""
    check(value)
    return _ENCODER.encode(value).encode("utf-8")


def orjson_float(value: float) -> str:
    """``repr(value)`` in orjson's notation (change 1)."""
    text = float.__repr__(value)
    if "e" not in text:
        return text
    mantissa, exponent = text.split("e")
    if int(exponent) == -5:
        sign, digits = ("-", mantissa[1:]) if mantissa.startswith("-") else ("", mantissa)
        return f"{sign}0.0000{digits.replace('.', '')}"
    return f"{mantissa}e{int(exponent)}"


def _changes(value: Any, found: set[str]) -> set[str]:
    """The contract changes that apply to ``value``, found by a full walk."""
    if isinstance(value, float):
        if math.isfinite(value) and "e" in float.__repr__(value):
            found.add("float")
    elif isinstance(value, bool):
        pass
    elif isinstance(value, int):
        if not -(2**63) <= value < 2**64:
            found.add("int")
    elif isinstance(value, str):
        if _has_surrogate(value):
            found.add("surrogate")
    elif isinstance(value, (list, tuple)):
        for item in value:
            _changes(item, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            if type(key) is not str and isinstance(key, str):
                found.add("key")
            if isinstance(key, str) and _has_surrogate(key):
                found.add("surrogate")
            _changes(item, found)
    return found


def _has_surrogate(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def changes(value: Any) -> set[str]:
    """Which of ``"float"``, ``"int"``, ``"key"`` and ``"surrogate"`` apply."""
    return _changes(value, set())


def expected(value: Any) -> bytes | str:
    """What ``canonical_json(value)`` must give: its bytes, or the message
    of the :class:`EncodingError` it must raise (``"EncodingError"`` where
    the message is orjson's, under changes 2-4)."""
    try:
        out = render(value)
    except EncodingError as exc:
        return str(exc)
    except UnicodeEncodeError:
        return "EncodingError"
    found = changes(value)
    if found & {"int", "key", "surrogate"}:
        return "EncodingError"
    if "float" in found:
        encode = _make_iterencode(
            {}, None, encode_basestring, None, orjson_float, ":", ",", True, False, True
        )
        return "".join(encode(value, 0)).encode("utf-8")
    return out


def outcome(render_: Any, *args: Any) -> bytes | str:
    """``render_(*args)``'s bytes, or the message of the
    :class:`EncodingError` it raised. Anything else it raises propagates."""
    try:
        return render_(*args)
    except EncodingError as exc:
        return str(exc)


def same(got: bytes | str, want: bytes | str) -> bool:
    """The same bytes, or both refused (whatever the messages)."""
    if isinstance(want, str):
        return isinstance(got, str)
    return got == want
