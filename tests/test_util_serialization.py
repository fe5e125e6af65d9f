"""Tests for canonical JSON serialization and the serialize-once memo."""

import sys
import threading
from dataclasses import dataclass, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.util import serialization
from repro.util.serialization import (
    ONCE_MAX_ENTRIES,
    canonical_json,
    from_canonical_json,
    once,
)


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


@dataclass(frozen=True)
class _Value:
    n: int


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
