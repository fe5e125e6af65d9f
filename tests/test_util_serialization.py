"""Tests for canonical JSON serialization and the serialize-once memo."""

import json
import sys
import threading
import uuid
from dataclasses import dataclass, replace
from datetime import datetime
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.util import serialization
from repro.util.serialization import (
    ONCE_MAX_ENTRIES,
    canonical_json,
    canonical_json_splice,
    from_canonical_json,
    once,
)
from tests import serialization_oracle as oracle


@dataclass(frozen=True)
class _Value:
    n: int


class TestCanonicalJson:
    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_compact_no_whitespace(self):
        assert b" " not in canonical_json({"a": [1, 2, {"b": "c d"}]}).replace(b"c d", b"")

    def test_deterministic_across_key_insertion_order(self):
        d1 = {}
        d1["x"] = 1
        d1["y"] = 2
        d2 = {}
        d2["y"] = 2
        d2["x"] = 1
        assert canonical_json(d1) == canonical_json(d2)

    def test_unicode_not_escaped(self):
        assert canonical_json("café") == b'"caf\xc3\xa9"'

    def test_nan_rejected(self):
        with pytest.raises(EncodingError):
            canonical_json({"x": float("nan")})

    def test_inf_rejected(self):
        with pytest.raises(EncodingError):
            canonical_json(float("inf"))

    def test_non_string_keys_rejected(self):
        with pytest.raises(EncodingError):
            canonical_json({1: "a"})

    def test_unserializable_type_rejected(self):
        with pytest.raises(EncodingError):
            canonical_json({"x": object()})

    def test_excessive_nesting_rejected(self):
        value = "leaf"
        for _ in range(80):
            value = [value]
        with pytest.raises(EncodingError):
            canonical_json(value)

    def test_invalid_bytes_raise_on_parse(self):
        with pytest.raises(EncodingError):
            from_canonical_json(b"{not json")
        with pytest.raises(EncodingError):
            from_canonical_json(b"\xff\xfe")


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_roundtrip(value):
    assert from_canonical_json(canonical_json(value)) == value


@given(json_values)
def test_canonical_fixed_point(value):
    """Serializing the parse of a canonical form reproduces the same bytes."""
    first = canonical_json(value)
    assert canonical_json(from_canonical_json(first)) == first


def _nested(levels, innermost, in_dict=False):
    value = innermost
    for _ in range(levels):
        value = {"k": value} if in_dict else [value]
    return value


# A list_all answer: 200 data records, over 64 containers but 4 levels deep.
_RECORDS = [
    {
        "entry_id": f"e-{i}", "cid": "bafy" + "k" * 55, "created_at": float(i),
        "metadata": {
            "camera_id": f"cam-{i % 8}", "location": {"lat": 12.5, "lon": 77.125},
            "detections": [{"vehicle_class": "car", "confidence": 0.5}],
        },
    }
    for i in range(200)
]


class _Colour(str, Enum):
    RED = "red"


class _Plain(Enum):
    ONE = 1


_CHECK_CASES = {
    **{
        f"{levels} levels, {name} innermost{' (dicts)' if in_dict else ''}": _nested(
            levels, innermost, in_dict
        )
        for levels in (63, 64, 65)
        for name, innermost in (("scalar", "leaf"), ("empty list", []), ("empty dict", {}))
        for in_dict in (False, True)
    },
    "NaN in a list in a dict": {"a": [1, float("nan")]},
    "-Inf in a tuple": (1, float("-inf")),
    "non-str key inside a list": [{"a": 1}, {1: "x"}],
    "non-str key before a deep child": _nested(64, {1: "x", "k": [0]}),
    "str-Enum value": {"colour": _Colour.RED, "list": [_Colour.RED]},
    "bytes value": {"v": b"ab"},
    "bytes in a list": ["ok", b"x"],
    "bool and None children": [True, None, {"f": False, "n": None}],
    "object child": [1, object()],
    "UUID value": {"id": uuid.UUID(int=7)},
    "plain Enum value": [_Plain.ONE],
    "dataclass value": {"v": _Value(1)},
    "datetime value": {"at": datetime(2020, 1, 1)},
    "set value": {"s": {1}},
    "tuples of scalars": {"t": (1, "a", (None, True))},
    "many flat containers": [{"n": i} for i in range(100)],
    "200 records": _RECORDS,
    "200 records and 64 levels, empty innermost": [*_RECORDS, _nested(63, [])],
    "200 records and 65 levels (dicts)": [*_RECORDS, _nested(63, {"k": 0}, True)],
    "200 records and 65 levels": [*_RECORDS, _nested(63, [0])],
    "brackets inside strings": ["[{" * 40],
}


@pytest.mark.parametrize("case", sorted(_CHECK_CASES))
def test_check_raises_what_the_call_per_value_walk_raised(case):
    """``canonical_json`` refuses what the former walk refused, with the
    same message, and renders the same bytes where it accepted."""
    value = _CHECK_CASES[case]
    assert oracle.changes(value) == set()
    assert oracle.outcome(canonical_json, value) == oracle.expected(value)


def test_many_shallow_containers_are_not_walked(monkeypatch):
    """The Python walk runs on nesting deeper than 64 levels, not on a value
    that merely holds many containers, such as a ``list_all`` answer."""
    walks = []
    monkeypatch.setattr(serialization, "_check", lambda value, depth=0: walks.append(value))
    assert canonical_json(_RECORDS) == oracle.expected(_RECORDS)
    assert walks == []


@given(json_values)
def test_check_accepts_what_the_call_per_value_walk_accepted(value):
    assert oracle.same(oracle.outcome(canonical_json, value), oracle.expected(value))
    assert not isinstance(oracle.expected(value), str)


# json_values and everything a contract change or a refusal is about:
# exponent floats, NaN/Inf, ints beyond 64 bits, tuples, str Enums (as values
# and as keys), UUIDs, plain Enums and lone surrogates.
_EXPONENT_FLOATS = st.sampled_from(
    [1e-5, -1e-5, 9.999999999999999e-05, 2.5e-7, 5e-324, 1e16, -1.5e300, 1e22,
     1.7976931348623157e308]
)
_SURROGATE_TEXT = st.tuples(
    st.text(max_size=5), st.sampled_from(["\ud800", "\udfff", "\udbff\udc00"])
).map("".join)
_EXTENDED_KEYS = st.text(max_size=10) | st.sampled_from([_Colour.RED]) | _SURROGATE_TEXT
extended_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.integers()
    | st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1])
    | st.floats(allow_nan=False, allow_infinity=False)
    | _EXPONENT_FLOATS
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text(max_size=30)
    | _SURROGATE_TEXT
    | st.sampled_from([_Colour.RED, _Plain.ONE])
    | st.uuids(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=10), children, max_size=4)
    | st.dictionaries(_EXTENDED_KEYS, children, max_size=3),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(extended_values)
def test_the_former_renderer_is_the_oracle(value):
    """Same bytes wherever no contract change applies, the same refusal
    otherwise; where the former renderer refused, the same message."""
    got, want = oracle.outcome(canonical_json, value), oracle.expected(value)
    assert oracle.same(got, want), (got, want)
    if isinstance(want, str) and want != "EncodingError":
        assert got == want
    if isinstance(got, bytes):
        assert oracle.outcome(from_canonical_json, got) == oracle.outcome(
            lambda: json.loads(want)
        )


@pytest.mark.parametrize(
    "value, bytes_or_refusal",
    [
        (1e-5, b"0.00001"),
        (-9.5e-5, b"-0.000095"),
        (1e-4, b"0.0001"),
        (2.5e-7, b"2.5e-7"),
        (1e16, b"1e16"),
        (1.5e300, b"1.5e300"),
        (9999999999999998.0, b"9999999999999998.0"),
        (2**64 - 1, b"18446744073709551615"),
        (-(2**63), b"-9223372036854775808"),
        (2**64, "EncodingError"),
        (-(2**63) - 1, "EncodingError"),
        ({_Colour.RED: 1}, "EncodingError"),
        ("a\ud800", "EncodingError"),
        ({"\udfff": 1}, "EncodingError"),
    ],
)
def test_each_contract_change(value, bytes_or_refusal):
    """The four deliberate changes from the former renderer, one value each:
    float notation, the 64-bit int range, str-subclass keys and lone
    surrogates (an :class:`EncodingError`, no ``UnicodeEncodeError``)."""
    assert oracle.expected(value) == bytes_or_refusal
    got = oracle.outcome(canonical_json, value)
    assert oracle.same(got, bytes_or_refusal)


json_objects = st.dictionaries(st.text(max_size=10), json_values, max_size=5)


@given(json_objects, st.dictionaries(st.text(max_size=10), json_values, max_size=3))
def test_splice_equals_the_whole_dict_rendering(value, inner):
    for key in inner:
        value.pop(key, None)
    fragments = {key: canonical_json(v) for key, v in inner.items()}
    assert canonical_json_splice(value, fragments) == canonical_json({**value, **inner})


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.text(max_size=10), extended_values, max_size=4),
    st.dictionaries(st.text(max_size=10), json_values, max_size=2),
)
def test_splice_refuses_what_the_former_renderer_refused(value, inner):
    for key in inner:
        value.pop(key, None)
    fragments = {key: canonical_json(v) for key, v in inner.items()}
    got = oracle.outcome(canonical_json_splice, value, fragments)
    want = oracle.expected({**value, **inner})
    if isinstance(want, str):
        assert isinstance(got, str)  # the first refusal may differ: runs are checked in key order
    else:
        assert got == want


def test_splice_refuses_what_canonical_json_refuses():
    with pytest.raises(EncodingError):
        canonical_json_splice({"x": float("nan")}, {"rwset": b"{}"})
    with pytest.raises(EncodingError):
        canonical_json_splice({1: "a"}, {"rwset": b"{}"})


class TestOnce:
    def test_same_object_is_computed_once(self):
        value, calls = _Value(1), []
        for _ in range(3):
            assert once(value, "form", lambda: calls.append(1) or b"bytes") == b"bytes"
        assert calls == [1]

    def test_forms_of_one_owner_are_separate(self):
        value = _Value(1)
        assert once(value, "a", lambda: "A") == "A"
        assert once(value, "b", lambda: "B") == "B"

    def test_equal_copy_is_not_the_same_owner(self):
        """Identity, not equality: the copy a tamper test makes is equal to
        the original until a field changes, and must still compute afresh."""
        value = _Value(1)
        copy = replace(value)
        assert copy == value and hash(copy) == hash(value)
        assert once(value, "form", lambda: "first") == "first"
        assert once(copy, "form", lambda: "second") == "second"

    def test_entry_holds_its_owner_so_an_id_is_never_reused_under_it(self):
        value = _Value(7)
        key = (id(value), "held")
        once(value, "held", lambda: "v")
        del value
        assert serialization._once[key][0] == _Value(7)

    def test_bounded_and_an_evicted_form_is_only_recomputed(self):
        value, calls = _Value(2), []

        def compute():
            calls.append(1)
            return canonical_json({"n": value.n})

        first = once(value, "form", compute)
        flood = [_Value(i) for i in range(ONCE_MAX_ENTRIES)]  # kept alive: distinct ids
        for other in flood:
            once(other, "form", lambda: None)
            assert len(serialization._once) <= ONCE_MAX_ENTRIES
        assert (id(value), "form") not in serialization._once  # oldest went first
        assert once(value, "form", compute) == first
        assert calls == [1, 1]

    def test_nested_once_inside_compute_does_not_deadlock(self):
        outer, inner, out = _Value(3), _Value(4), []
        worker = threading.Thread(
            target=lambda: out.append(
                once(outer, "outer", lambda: once(inner, "inner", lambda: "in") + "/out")
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert out == ["in/out"]

    def test_concurrent_inserts_keep_the_bound_and_the_values(self):
        """More threads than cores, each inserting past the bound: a racing
        insert/evict would overshoot it or break the oldest-entry iterator."""
        errors: list[BaseException] = []

        def hammer(base: int) -> None:
            try:
                for i in range(ONCE_MAX_ENTRIES):
                    value = _Value(base + i)
                    for _ in range(2):  # a hit, unless another thread evicted it
                        assert once(value, "n", lambda: value.n) == base + i
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(k * 10**6,), daemon=True)
                for k in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert len(serialization._once) <= ONCE_MAX_ENTRIES
