"""Tests for the versioned world state, composite keys, and history."""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LedgerError
from repro.util.serialization import canonical_json, value_from_json, value_to_json
from repro.fabric.worldstate import (
    Version,
    WorldState,
    composite_prefix_range,
    make_composite_key,
    split_composite_key,
)


def ws_put(ws, key, value, block, tx=0, tx_id="tx", ts=0.0):
    ws.apply_write(key, value, Version(block, tx), tx_id, ts)


class TestWorldState:
    def test_get_put(self):
        ws = WorldState()
        ws_put(ws, "k", b"v", 1)
        assert ws.get("k") == b"v"
        assert ws.get_version("k") == Version(1, 0)

    def test_missing_key_none(self):
        assert WorldState().get("nope") is None
        assert WorldState().get_version("nope") is None

    def test_overwrite_advances_version(self):
        ws = WorldState()
        ws_put(ws, "k", b"v1", 1)
        ws_put(ws, "k", b"v2", 2)
        assert ws.get("k") == b"v2"
        assert ws.get_version("k") == Version(2, 0)

    def test_stale_write_rejected(self):
        ws = WorldState()
        ws_put(ws, "k", b"v2", 5)
        with pytest.raises(LedgerError):
            ws_put(ws, "k", b"old", 3)

    def test_delete(self):
        ws = WorldState()
        ws_put(ws, "k", b"v", 1)
        ws_put(ws, "k", None, 2)
        assert ws.get("k") is None
        assert not ws.has("k")
        # Delete still advances the version (MVCC sees the tombstone).
        assert ws.get_version("k") == Version(2, 0)

    def test_range_scan_sorted(self):
        ws = WorldState()
        for key in ["b", "a", "d", "c"]:
            ws_put(ws, key, key.encode(), 1)
        assert [k for k, _ in ws.range("a", "c")] == ["a", "b"]
        assert [k for k, _ in ws.range()] == ["a", "b", "c", "d"]

    def test_range_open_bounds(self):
        ws = WorldState()
        for key in ["a", "b", "c"]:
            ws_put(ws, key, b"x", 1)
        assert [k for k, _ in ws.range(start="b")] == ["b", "c"]
        assert [k for k, _ in ws.range(end="b")] == ["a"]

    def test_range_after_delete(self):
        ws = WorldState()
        for key in ["a", "b", "c"]:
            ws_put(ws, key, b"x", 1)
        ws_put(ws, "b", None, 2)
        assert [k for k, _ in ws.range()] == ["a", "c"]

    def test_history_ordered(self):
        ws = WorldState()
        ws_put(ws, "k", b"v1", 1, tx_id="t1")
        ws_put(ws, "k", b"v2", 2, tx_id="t2")
        ws_put(ws, "k", None, 3, tx_id="t3")
        history = ws.history("k")
        assert [h.tx_id for h in history] == ["t1", "t2", "t3"]
        assert [h.is_delete for h in history] == [False, False, True]

    def test_version_ordering(self):
        assert Version(1, 5) < Version(2, 0)
        assert Version(2, 1) < Version(2, 2)

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.binary(min_size=1, max_size=8), max_size=20))
    def test_property_range_matches_sorted_dict(self, items):
        ws = WorldState()
        for i, (k, v) in enumerate(items.items()):
            ws_put(ws, k, v, 1, tx=i)
        assert ws.range() == sorted(items.items())


_KEYS = st.sampled_from(["a", "b", "c", "d\n", "\x00idx\x00e\x00"])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.binary(max_size=6)),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("lines")),
        st.tuples(st.just("digest")),
    ),
    max_size=40,
)


def _fresh_copy(ws):
    fresh = WorldState()
    for key, value in ws.range():
        fresh.apply_write(key, value, ws.get_version(key), "fresh", 0.0)
    return fresh


class TestSnapshotLines:
    """The per-key line cache behind checkpoints and the state digest."""

    def test_lines_are_canonical_key_value_version_rows_in_key_order(self):
        ws = WorldState()
        ws_put(ws, "b", b"\x01\xff", 3, tx=2)
        ws_put(ws, "a", b"", 1)
        ws_put(ws, "gone", b"x", 1)
        ws.apply_write("gone", None, Version(2, 0), "tx", 0.0)
        lines = ws.snapshot_lines()
        assert [json.loads(line) for line in lines] == [
            ["a", "", 1, 0],
            ["b", {"base64": "Af8="}, 3, 2],  # not UTF-8
        ]
        assert ws.digest() == hashlib.sha256(b"".join(lines)).hexdigest()

    @given(_OPS)
    def test_any_interleaving_equals_a_fresh_world_with_the_same_content(self, ops):
        ws = WorldState()
        for block, op in enumerate(ops):
            if op[0] == "put":
                ws_put(ws, op[1], op[2], block)
            elif op[0] == "delete":
                ws.apply_write(op[1], None, Version(block, 0), "tx", 0.0)
            elif op[0] == "lines":
                ws.snapshot_lines()
            else:
                ws.digest()
            assert ws.digest() == _fresh_copy(ws).digest()
        fresh = _fresh_copy(ws)
        assert ws.snapshot_lines() == fresh.snapshot_lines()
        assert ws.digest() == fresh.digest()  # and with every line cached
        assert all(b"\n" not in line for line in ws.snapshot_lines())

    @given(_OPS)
    def test_only_snapshot_lines_fills_the_cache(self, ops):
        ws = WorldState()
        for block, op in enumerate(ops):
            if op[0] == "put":
                ws_put(ws, op[1], op[2], block)
            elif op[0] == "delete":
                ws.apply_write(op[1], None, Version(block, 0), "tx", 0.0)
            else:
                ws.digest()
        assert ws._lines == {}  # never snapshotted: digest() stored nothing
        ws.snapshot_lines()
        assert sorted(ws._lines) == ws.keys()

    def test_a_write_drops_exactly_its_own_line(self):
        ws = WorldState()
        for key in "abc":
            ws_put(ws, key, b"v", 1)
        before = ws.snapshot_lines()
        ws_put(ws, "b", b"v2", 2)
        ws.apply_write("c", None, Version(2, 1), "tx", 0.0)
        assert sorted(ws._lines) == ["a"]
        after = ws.snapshot_lines()
        assert after[0] is before[0]  # joined, not re-serialised
        assert [json.loads(line)[0] for line in after] == ["a", "b"]
        assert json.loads(after[1]) == ["b", "v2", 2, 0]

    @given(
        st.text(),
        st.binary(max_size=64),
        st.integers(0, 2**63),
        st.integers(0, 2**31),
    )
    def test_a_line_is_the_canonical_json_of_its_row(self, key, value, block, tx):
        ws = WorldState()
        ws_put(ws, key, value, block, tx=tx)
        (line,) = ws.snapshot_lines([key])
        assert line == canonical_json([key, value_to_json(value), block, tx])
        assert value_from_json(json.loads(line)[1]) == value

    def test_take_changed_lists_the_keys_written_since_its_last_call(self):
        ws = WorldState()
        ws_put(ws, "a", b"v", 1)
        assert ws.take_changed() is None  # nothing was tracked before
        assert ws.take_changed() == []
        ws_put(ws, "c", b"v", 2)
        ws_put(ws, "b", b"v", 2)
        ws.apply_write("a", None, Version(2, 1), "tx", 0.0)
        ws_put(ws, "c", b"w", 3)
        assert ws.take_changed() == ["a", "b", "c"]  # deletes too, each key once
        assert ws.take_changed() == []

    def test_cache_does_not_take_part_in_equality(self):
        a, b = WorldState(), WorldState()
        for ws in (a, b):
            ws_put(ws, "k", b"v", 1, ts=0.0)
        a.snapshot_lines()
        assert a == b


class TestCompositeKeys:
    def test_roundtrip(self):
        key = make_composite_key("vehicle", ["bangalore", "cam-7", "frame-1"])
        obj, attrs = split_composite_key(key)
        assert obj == "vehicle"
        assert attrs == ["bangalore", "cam-7", "frame-1"]

    def test_no_attributes(self):
        key = make_composite_key("marker", [])
        obj, attrs = split_composite_key(key)
        assert (obj, attrs) == ("marker", [])

    def test_separator_in_parts_rejected(self):
        with pytest.raises(LedgerError):
            make_composite_key("a\x00b", [])
        with pytest.raises(LedgerError):
            make_composite_key("a", ["x\x00y"])

    def test_split_non_composite_rejected(self):
        with pytest.raises(LedgerError):
            split_composite_key("plain-key")

    def test_prefix_range_selects_subtree(self):
        ws = WorldState()
        keys = {
            make_composite_key("cat", ["fruit", "apple"]): b"1",
            make_composite_key("cat", ["fruit", "banana"]): b"2",
            make_composite_key("cat", ["veg", "carrot"]): b"3",
            make_composite_key("other", ["fruit", "apple"]): b"4",
        }
        for i, (k, v) in enumerate(keys.items()):
            ws_put(ws, k, v, 1, tx=i)
        start, end = composite_prefix_range("cat", ["fruit"])
        rows = ws.range(start, end)
        assert sorted(v for _, v in rows) == [b"1", b"2"]

    def test_prefix_range_full_object_type(self):
        ws = WorldState()
        for i, item in enumerate(["a", "b"]):
            ws_put(ws, make_composite_key("cat", ["x", item]), b"v", 1, tx=i)
        start, end = composite_prefix_range("cat", [])
        assert len(ws.range(start, end)) == 2

    def test_prefix_is_not_confused_by_similar_attr(self):
        """Attribute 'ab' must not match prefix query for 'a'."""
        ws = WorldState()
        ws_put(ws, make_composite_key("cat", ["ab", "x"]), b"1", 1)
        start, end = composite_prefix_range("cat", ["a"])
        assert ws.range(start, end) == []

    @given(
        st.text(alphabet=st.characters(blacklist_characters="\x00"), min_size=1, max_size=6),
        st.lists(
            st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=6),
            max_size=4,
        ),
    )
    def test_property_roundtrip(self, obj, attrs):
        key = make_composite_key(obj, attrs)
        assert split_composite_key(key) == (obj, attrs)
