"""Tests for the query engine: parser, planner, and hybrid execution."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.errors import DagError, QueryParseError
from repro.query import Compare, IndexRoute, InSet, Query, parse_query, plan_query
from repro.query.ast import And, Not, Or, TrueExpr, get_path
from repro.trust import SourceTier
from repro.util.serialization import canonical_json


class TestParser:
    def test_empty_query(self):
        q = parse_query("")
        assert isinstance(q.where, TrueExpr)

    def test_simple_equality(self):
        q = parse_query("camera_id = 'cam-07'")
        assert q.where == Compare(field="camera_id", op="=", value="cam-07")

    def test_where_keyword_optional(self):
        assert parse_query("WHERE x = 1") == parse_query("x = 1")

    def test_numbers_and_floats(self):
        q = parse_query("metadata.timestamp >= 100.5")
        assert q.where.value == 100.5
        assert isinstance(parse_query("n = 3").where.value, int)

    def test_booleans(self):
        assert parse_query("active = true").where.value is True

    def test_and_or_precedence(self):
        q = parse_query("a = 1 OR b = 2 AND c = 3")
        assert isinstance(q.where, Or)
        assert isinstance(q.where.parts[1], And)

    def test_parentheses(self):
        q = parse_query("(a = 1 OR b = 2) AND c = 3")
        assert isinstance(q.where, And)
        assert isinstance(q.where.parts[0], Or)

    def test_not(self):
        q = parse_query("NOT a = 1")
        assert isinstance(q.where, Not)

    def test_in_clause(self):
        q = parse_query("vehicle_class IN ('truck', 'bus')")
        assert q.where == InSet(field="vehicle_class", values=("truck", "bus"))

    def test_order_and_limit(self):
        q = parse_query("x = 1 ORDER BY metadata.timestamp DESC LIMIT 5")
        assert q.order_by == "metadata.timestamp"
        assert q.descending
        assert q.limit == 5

    def test_escaped_quote(self):
        q = parse_query(r"name = 'O\'Brien'")
        assert q.where.value == "O'Brien"

    @pytest.mark.parametrize("text, value", [
        (r"source_id = 'a\\b'", "a\\b"),
        (r"source_id = 'x\\'", "x\\"),
        (r"source_id = 'it\'s \\\' here'", "it's \\' here"),
    ])
    def test_escaped_backslash_is_one_backslash(self, text, value):
        assert parse_query(text).where.value == value

    def test_errors(self):
        for bad in ("x =", "x ~ 1", "ORDER x", "x = 1 LIMIT 1.5", "x = 1 garbage = 2", "= 5"):
            with pytest.raises(QueryParseError):
                parse_query(bad)


class TestAst:
    RECORD = {
        "entry_id": "e1",
        "source_id": "cam-1",
        "metadata": {
            "timestamp": 500,
            "location": {"lat": 12.9, "lon": 77.6},
            "detections": [
                {"vehicle_class": "car", "confidence": 0.9},
                {"vehicle_class": "truck", "confidence": 0.8},
            ],
        },
    }

    def test_get_path(self):
        assert get_path(self.RECORD, "metadata.location.lat") == 12.9
        assert get_path(self.RECORD, "missing.path") is None

    def test_compare_nested(self):
        assert Compare("metadata.timestamp", ">", 100).matches(self.RECORD)
        assert not Compare("metadata.timestamp", ">", 1000).matches(self.RECORD)

    def test_detection_quantifier(self):
        assert Compare("vehicle_class", "=", "truck").matches(self.RECORD)
        assert not Compare("vehicle_class", "=", "bus").matches(self.RECORD)
        assert InSet("vehicle_class", ("bus", "car")).matches(self.RECORD)

    def test_missing_field_never_matches(self):
        assert not Compare("nope", "=", 1).matches(self.RECORD)
        assert not Compare("nope", "!=", 1).matches(self.RECORD)

    def test_cross_type_comparison_false(self):
        assert not Compare("source_id", ">", 10).matches(self.RECORD)

    def test_post_ordering_and_limit(self):
        records = [{"v": 3}, {"v": 1}, {"v": 2}]
        q = Query(order_by="v", limit=2)
        assert q.apply_post(records) == [{"v": 1}, {"v": 2}]
        q = Query(order_by="v", descending=True, limit=1)
        assert q.apply_post(records) == [{"v": 3}]


class TestPlanner:
    def test_source_index_preferred(self):
        plan = plan_query(parse_query("source_id = 'cam-1' AND vehicle_class = 'car'"))
        assert plan.index_route == IndexRoute(dim="source", value="cam-1")

    def test_camera_index(self):
        plan = plan_query(parse_query("camera_id = 'cam-1'"))
        assert plan.index_route == IndexRoute(dim="camera", value="cam-1")

    def test_class_index(self):
        plan = plan_query(parse_query("vehicle_class = 'truck'"))
        assert plan.index_route == IndexRoute(dim="class", value="truck")

    def test_time_range_index(self):
        plan = plan_query(
            parse_query("metadata.timestamp >= 100 AND metadata.timestamp < 200")
        )
        # The route's upper edge is widened to the next float (for "<= t").
        widened = math.nextafter(200.0, math.inf)
        assert plan.index_route == IndexRoute(dim="time", time_range=(100.0, widened))

    def test_half_open_time_range_not_indexed(self):
        plan = plan_query(parse_query("metadata.timestamp >= 100"))
        assert plan.index_route is None

    def test_or_falls_back_to_scan(self):
        plan = plan_query(parse_query("source_id = 'a' OR vehicle_class = 'car'"))
        assert plan.index_route is None

    def test_empty_where_scans(self):
        plan = plan_query(parse_query(""))
        assert plan.index_route is None
        assert plan.explain() == "FULL SCAN data:* -> filter"

    def test_explain_index(self):
        plan = plan_query(parse_query("source_id = 'cam-1'"))
        assert plan.explain() == "INDEX source=cam-1 -> filter"


class TestParsePlanCost:
    """Every query text pays ``plan_query(parse_query(text))`` before it
    reads a row. Its count of Python calls (``call`` and ``c_call`` profile
    events) is deterministic, so it gates exactly. The texts have the shapes
    of the e2e ``query_static`` workload's ``eq_hot``, ``eq_adhoc`` and
    ``range`` queries."""

    TEXTS = {
        "eq_hot": "metadata.camera_id = 'cam-003'",
        "eq_adhoc": "metadata.camera_id = 'cam-017' AND metadata.timestamp >= 1700012340",
        "range": "metadata.timestamp >= 1700012340 AND metadata.timestamp < 1700015940",
    }
    # Half of what the former match-per-token parser, dataclass nodes and
    # per-dimension planner made: 98 / 169 / 198 calls.
    MAX_CALLS = {"eq_hot": 49, "eq_adhoc": 84, "range": 99}

    @staticmethod
    def calls(text: str) -> int:
        plan_query(parse_query(text))  # warm any lazily built cache
        n = 0

        def count(frame, event, arg):
            nonlocal n
            if event == "call" or event == "c_call":
                n += 1

        sys.setprofile(count)
        try:
            plan_query(parse_query(text))
        finally:
            sys.setprofile(None)
        return n

    @pytest.mark.parametrize("shape", ["eq_hot", "eq_adhoc", "range"])
    def test_parse_and_plan_make_at_most_half_the_calls(self, shape):
        assert self.calls(self.TEXTS[shape]) <= self.MAX_CALLS[shape]


@pytest.fixture(scope="module")
def populated():
    """A small framework with three sources and several uploads."""
    framework = Framework(FrameworkConfig(consensus="solo", n_ipfs_nodes=2))
    cam = Client(framework, framework.register_source("cam-A", tier=SourceTier.TRUSTED))
    mob = Client(framework, framework.register_source("mob-B"))
    receipts = {}
    specs = [
        (cam, b"frame-1", {"timestamp": 100.0, "camera_id": "cam-A",
                           "detections": [{"vehicle_class": "car", "confidence": 0.9}]}),
        (cam, b"frame-2", {"timestamp": 700.0, "camera_id": "cam-A",
                           "detections": [{"vehicle_class": "truck", "confidence": 0.85}]}),
        (mob, b"photo-1", {"timestamp": 720.0,
                           "detections": [{"vehicle_class": "truck", "confidence": 0.6},
                                          {"vehicle_class": "car", "confidence": 0.7}]}),
        (mob, b"photo-2", {"timestamp": 5000.0, "detections": []}),
    ]
    for client, data, meta in specs:
        receipts[data] = client.submit(data, meta)
    return framework, cam, receipts


class TestExecution:
    def test_query_by_source(self, populated):
        _, cam, receipts = populated
        rows = cam.query("source_id = 'cam-A'")
        assert {r.entry_id for r in rows} == {
            receipts[b"frame-1"].entry_id,
            receipts[b"frame-2"].entry_id,
        }

    def test_query_by_class_with_residual(self, populated):
        _, cam, receipts = populated
        rows = cam.query("vehicle_class = 'truck' AND source_id = 'mob-B'")
        assert [r.entry_id for r in rows] == [receipts[b"photo-1"].entry_id]

    def test_time_range(self, populated):
        _, cam, receipts = populated
        rows = cam.query("metadata.timestamp >= 600 AND metadata.timestamp <= 800")
        assert {r.entry_id for r in rows} == {
            receipts[b"frame-2"].entry_id,
            receipts[b"photo-1"].entry_id,
        }

    def test_order_and_limit(self, populated):
        _, cam, _ = populated
        rows = cam.query("metadata.timestamp >= 0 AND metadata.timestamp <= 99999 "
                         "ORDER BY metadata.timestamp DESC LIMIT 2")
        stamps = [r.record["metadata"]["timestamp"] for r in rows]
        assert stamps == [5000.0, 720.0]

    def test_full_scan_finds_all(self, populated):
        _, cam, receipts = populated
        rows = cam.query("")
        assert len(rows) == len(receipts)

    def test_fetch_data_verifies_and_returns_bytes(self, populated):
        _, cam, receipts = populated
        rows = cam.query("source_id = 'cam-A' ORDER BY metadata.timestamp", fetch_data=True)
        assert rows[0].data == b"frame-1"
        assert rows[0].verified

    def test_point_get(self, populated):
        _, cam, receipts = populated
        row = cam.engine.get(receipts[b"photo-1"].entry_id, fetch_data=True)
        assert row.data == b"photo-1"

    def test_integrity_violation_detected(self, populated):
        framework, cam, receipts = populated
        entry_id = receipts[b"frame-1"].entry_id
        record = dict(cam.get_metadata(entry_id))
        cid = framework.ipfs.add(b"evidence that will rot").cid
        record["cid"] = cid.encode()
        for node in framework.ipfs.nodes.values():
            if node.blockstore.has(cid):
                node.blockstore.corrupt(cid, b"other bytes")  # not what the CID names
        with pytest.raises(DagError):
            cam.engine.fetch_payload(record)

    def test_stats_accumulate(self, populated):
        _, cam, _ = populated
        before = cam.engine.stats.queries
        cam.query("source_id = 'cam-A'")
        assert cam.engine.stats.queries == before + 1

    def test_index_path_scans_fewer_rows_than_full(self, populated):
        _, cam, _ = populated
        engine = cam.engine
        start = engine.stats.rows_scanned
        engine.run("source_id = 'mob-B'")
        indexed_scan = engine.stats.rows_scanned - start
        start = engine.stats.rows_scanned
        engine.run("")
        full_scan = engine.stats.rows_scanned - start
        assert indexed_scan < full_scan


# -- queries that cost what they return ----------------------------------------

T0 = 1_700_000_000  # epoch-scale: float64 spacing here is 2.4e-7 s
N_BULK = 160


def _store_bulk(channel, identity):
    """``N_BULK`` records 30 s apart from ``T0``, alternating car / truck,
    four cameras; stored through ``data_upload.store`` directly (no payloads)."""
    for i in range(N_BULK):
        meta = {
            "camera_id": f"cam-{i % 4}",
            "timestamp": float(T0 + 30 * i),
            "location": {"lat": 12.0 + i / 1000},
            "detections": [{"vehicle_class": "car" if i % 2 == 0 else "truck"}],
        }
        channel.invoke_async(
            identity, "data_upload", "store",
            [CID.for_data(b"bulk-%d" % i).encode(), canonical_json(meta).decode()],
        )
    channel.flush()


def _bulk_framework(**overrides):
    config = dict(consensus="solo", n_ipfs_nodes=2, max_batch_size=32)
    config.update(overrides)
    framework = Framework(FrameworkConfig(**config))
    client = Client(framework, framework.register_source("bulk", tier=SourceTier.TRUSTED))
    _store_bulk(framework.channel, client.identity)
    return framework, client


@pytest.fixture(scope="module")
def bulk():
    return _bulk_framework()


def _counted(engine, counter, call):
    """``(call(), how far it moved engine.stats.<counter>)``."""
    before = getattr(engine.stats, counter)
    out = call()
    return out, getattr(engine.stats, counter) - before


class TestTimeBoundary:
    """``<= t`` and ``= t`` keep the row at exactly ``t`` on every route."""

    @pytest.mark.parametrize("text, expected", [
        (f"metadata.timestamp >= {T0} AND metadata.timestamp <= {T0 + 30}", 2),
        (f"metadata.timestamp = {T0 + 30}", 1),
    ], ids=["le", "eq"])
    def test_boundary_row_on_both_routes(self, bulk, text, expected):
        engine = bulk[1].engine
        assert len(engine.run(text)) == expected
        assert len(engine.scan(text)) == expected

    def test_boundary_row_under_the_index_sanitizer(self):
        framework, client = _bulk_framework(sanitize="index")
        for text in (
            f"metadata.timestamp >= {T0} AND metadata.timestamp <= {T0 + 30}",
            f"metadata.timestamp = {T0 + 30}",
        ):
            client.engine.run(text)
        report = framework.sanitizer.finalize()
        assert not [f for f in report.findings if f.rule_id == "SAN309"], report.render()


class TestDecodeOnce:
    RANGE = f"metadata.timestamp >= {T0 + 600} AND metadata.timestamp < {T0 + 1800}"

    def test_repeated_query_decodes_nothing_and_shares_records(self, bulk):
        engine = bulk[1].engine
        first = engine.run(self.RANGE)
        second, decoded = _counted(engine, "records_decoded", lambda: engine.run(self.RANGE))
        assert len(first) == 40
        assert decoded == 0
        assert all(a.record is b.record for a, b in zip(first, second))

    def test_full_scan_reuses_what_the_index_route_decoded(self, bulk):
        engine = bulk[1].engine
        engine.run("metadata.location.lat > 0")  # every record, state scan
        _, decoded = _counted(engine, "records_decoded", lambda: engine.run(self.RANGE))
        assert decoded == 0
        _, decoded = _counted(engine, "records_decoded", lambda: engine.run("vehicle_class = 'car'"))
        assert decoded == 0

    def test_rewritten_and_deleted_keys_are_read_fresh(self):
        from repro.fabric.worldstate import Version

        framework, client = _bulk_framework()
        engine = client.engine
        rows = engine.run("metadata.camera_id = 'cam-1'")
        world = framework.channel.indexing.reference_peer().world
        height = framework.channel.height()
        changed, dropped = rows[0].record, rows[1].record
        rewritten = dict(changed, cid="bafy-rewritten")
        world.apply_write(
            "data:" + changed["entry_id"], canonical_json(rewritten),
            Version(height, 0), "tx-rewrite", 0.0,
        )
        world.apply_write(
            "data:" + dropped["entry_id"], None, Version(height, 1), "tx-drop", 0.0
        )
        again, decoded = _counted(
            engine, "records_decoded", lambda: engine.run("metadata.camera_id = 'cam-1'")
        )
        assert decoded == 1
        assert again[0].record == rewritten
        assert changed["cid"] != "bafy-rewritten"  # the old dict was not touched
        assert dropped["entry_id"] not in {r.entry_id for r in again}
        assert len(again) == len(rows) - 1

    def test_kept_records_are_bounded_oldest_first(self, bulk, monkeypatch):
        from repro.query import executor

        framework, client = bulk
        engine = executor.QueryEngine(
            channel=framework.channel, cluster=framework.ipfs,
            identity=client.identity,
        )
        monkeypatch.setattr(executor, "_MAX_DECODED_RECORDS", 8)
        rows = engine.run("")
        assert len(rows) == N_BULK
        assert list(engine._records) == ["data:" + r.entry_id for r in rows[-8:]]


class TestLimitStops:
    def test_limit_examines_up_to_the_last_row_it_returns(self, bulk):
        """``class ... LIMIT k``: records examined == the position, among the
        class posting in entry-id order, of the k-th one the residual takes."""
        engine = bulk[1].engine
        floor = T0 + 30 * 20
        cars = sorted(
            (r.record for r in engine.run("vehicle_class = 'car'")),
            key=lambda r: r["entry_id"],
        )
        assert len(cars) == N_BULK // 2
        position = matches = 0
        for record in cars:
            position += 1
            matches += record["metadata"]["timestamp"] >= floor
            if matches == 50:
                break
        assert matches == 50 and position < len(cars)
        text = f"vehicle_class = 'car' AND metadata.timestamp >= {floor} LIMIT 50"
        rows, examined = _counted(engine, "rows_scanned", lambda: engine.run(text))
        assert len(rows) == 50
        assert examined == position
        answer, examined = _counted(engine, "rows_scanned", lambda: engine.run_verified(text))
        assert [r["entry_id"] for r in answer.records] == [r.entry_id for r in rows]
        assert examined == position

    def test_limit_stops_a_state_scan_too(self, bulk):
        engine = bulk[1].engine
        rows, examined = _counted(
            engine, "rows_scanned", lambda: engine.run("metadata.location.lat > 0 LIMIT 5")
        )
        assert len(rows) == examined == 5

    def test_order_by_still_examines_every_candidate(self, bulk):
        engine = bulk[1].engine
        text = "vehicle_class = 'car' ORDER BY metadata.timestamp DESC LIMIT 5"
        rows, examined = _counted(engine, "rows_scanned", lambda: engine.run(text))
        assert examined == N_BULK // 2
        assert [r.record["metadata"]["timestamp"] for r in rows] == [
            float(T0 + 30 * i) for i in (158, 156, 154, 152, 150)
        ]

    def test_limit_zero_examines_nothing(self, bulk):
        engine = bulk[1].engine
        rows, examined = _counted(
            engine, "rows_scanned", lambda: engine.run("vehicle_class = 'car' LIMIT 0")
        )
        assert rows == [] and examined == 0


@pytest.fixture(scope="module")
def bare(bulk):
    """The ``bulk`` records on a bare channel: no index manager, so no peer
    serves the index and every query takes the chaincode fallback."""
    from repro.chaincodes import DataRetrievalChaincode, DataUploadChaincode
    from repro.fabric import FabricNetwork, Role
    from repro.query import QueryEngine

    net = FabricNetwork()
    channel = net.create_channel("bare", orgs=["org1"], max_batch_size=32)
    channel.install_chaincode(DataUploadChaincode())
    channel.install_chaincode(DataRetrievalChaincode())
    identity = net.register_identity("bulk", "org1", role=Role.CLIENT)
    _store_bulk(channel, identity)
    return QueryEngine(channel=channel, cluster=bulk[0].ipfs, identity=identity)


class TestRoutesAgree:
    """The query shapes of ``benchmarks/e2e``, plus the inclusive time
    edges, answer identically from the index route, the state scan and the
    chaincode full scan (:meth:`QueryEngine.scan`) — and on a channel no
    indexed peer serves, the fallback answers what ``scan()`` answers."""

    T = T0 + 30 * 40
    SHAPES = {
        "eq_hot": "metadata.camera_id = 'cam-2'",
        "eq_adhoc": f"metadata.camera_id = 'cam-1' AND metadata.timestamp >= {T}",
        "range": f"metadata.timestamp >= {T} AND metadata.timestamp < {T + 3600}",
        "le_edge": f"metadata.timestamp >= {T} AND metadata.timestamp <= {T + 30}",
        "eq_edge": f"metadata.timestamp = {T + 30}",
        "verified": "metadata.camera_id = 'cam-3'",
        "join": f"metadata.camera_id = 'cam-0' AND metadata.timestamp >= {T} LIMIT 8",
        "class": f"vehicle_class = 'truck' AND metadata.timestamp >= {T} LIMIT 50",
        "scan": "metadata.location.lat > 12.08",
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_three_routes_one_answer(self, bulk, bare, shape, monkeypatch):
        import dataclasses

        engine = bulk[1].engine
        query = parse_query(self.SHAPES[shape])
        routed = plan_query(query).index_route is not None
        assert routed == (shape != "scan")
        # A one-branch OR means the same and has no index route: the planner
        # sends it down the state scan.
        unrouted = dataclasses.replace(query, where=Or((query.where,)))
        assert plan_query(unrouted).index_route is None
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_chain_records", None)  # the state routes never call it
            hits = engine.stats.index_hits
            via_index = [r.record for r in engine.run(query)]
            assert engine.stats.index_hits - hits == routed
            via_state = [r.record for r in engine.run(unrouted)]
            if shape == "verified":
                assert list(engine.run_verified(query).records) == via_index
        via_chaincode = engine.scan(query)
        assert via_index
        assert canonical_json(via_index) == canonical_json(via_state)
        assert canonical_json(via_index) == canonical_json(via_chaincode)

        misses = bare.stats.index_misses
        via_fallback = [r.record for r in bare.run(query)]
        assert bare.stats.index_misses - misses == routed
        assert canonical_json(via_fallback) == canonical_json(bare.scan(query))
        assert len(via_fallback) == len(via_index)

    def test_point_lookup_matches_the_shared_record(self, bulk):
        engine = bulk[1].engine
        row = engine.run(self.SHAPES["eq_hot"])[0]
        assert engine.get(row.entry_id).record == row.record


# -- time windows: only the edge buckets are filtered ---------------------------

EDGE = 2_833_334 * 600  # a time-bucket edge at epoch scale (T0 + 400)
TS = "metadata.timestamp"
# Every 150 s for 13 buckets, so each bucket edge holds a record; plus
# negative timestamps, whose bucket ids sort outside the padded range.
WINDOW_STAMPS = [float(EDGE + 150 * k) for k in range(-8, 44)] + [
    -1800.0, -1200.0, -600.5, -600.0, -1.0, 0.0, 599.0, 600.0,
]


@pytest.fixture(scope="module")
def windowed():
    framework = Framework(FrameworkConfig(consensus="solo", n_ipfs_nodes=2, max_batch_size=32))
    client = Client(framework, framework.register_source("win", tier=SourceTier.TRUSTED))
    for i, ts in enumerate(WINDOW_STAMPS):
        meta = {
            "camera_id": f"cam-{i % 3}",
            "timestamp": ts,
            "detections": [{"vehicle_class": "car" if i % 2 == 0 else "truck"}],
        }
        framework.channel.invoke_async(
            client.identity, "data_upload", "store",
            [CID.for_data(b"win-%d" % i).encode(), canonical_json(meta).decode()],
        )
    framework.channel.flush()
    return framework, client.engine


def _window_parity(engine, text):
    """The index route answers ``text`` as the chaincode full scan does."""
    hits = engine.stats.index_hits
    answer = [row.record for row in engine.run(text)]
    assert engine.stats.index_hits == hits + 1, text
    assert canonical_json(answer) == canonical_json(engine.scan(text)), text
    return answer


class TestWindows:
    WINDOWS = {
        "one_bucket_on_its_edges": f"{TS} >= {EDGE} AND {TS} < {EDGE + 600}",
        "one_bucket_open_closed": f"{TS} > {EDGE} AND {TS} <= {EDGE + 600}",
        "inside_one_bucket": f"{TS} > {EDGE + 1} AND {TS} <= {EDGE + 450}",
        "two_buckets": f"{TS} >= {EDGE + 300} AND {TS} < {EDGE + 900}",
        "three_buckets": f"{TS} > {EDGE - 600} AND {TS} <= {EDGE + 1200}",
        "seven_buckets": f"{TS} >= {EDGE + 100} AND {TS} < {EDGE + 4100}",
        "fractional_bounds": f"{TS} >= {EDGE + 0.5} AND {TS} < {EDGE + 1799.5}",
        "redundant_bounds": (
            f"{TS} >= {EDGE} AND {TS} > {EDGE + 150} AND "
            f"{TS} < {EDGE + 3000} AND {TS} <= {EDGE + 2400}"
        ),
        "empty": f"{TS} >= {EDGE + 100} AND {TS} < {EDGE + 100}",
        "negative": f"{TS} >= -1200 AND {TS} < 0",
        "across_zero": f"{TS} > -600 AND {TS} <= 600",
        "far_negative": f"{TS} >= -10000000000000 AND {TS} <= -600",
    }

    @pytest.mark.parametrize("shape", sorted(WINDOWS))
    def test_window_matches_the_scan(self, windowed, shape):
        text = self.WINDOWS[shape]
        assert plan_query(parse_query(text)).window
        _window_parity(windowed[1], text)

    @pytest.mark.parametrize("text", [
        f"{TS} = {EDGE + 600}",
        f"{TS} = -600",
        f"{TS} >= {EDGE} AND {TS} < {EDGE + 4200} AND metadata.camera_id != 'cam-1'",
        f"{TS} >= {EDGE} AND {TS} < {EDGE + 4200} AND NOT vehicle_class = 'car'",
        f"{TS} >= -1800 AND {TS} <= 600 AND metadata.camera_id != 'cam-0'",
    ], ids=["eq", "eq_negative", "and_ne", "and_not", "negative_and_ne"])
    def test_other_plans_filter_every_candidate(self, windowed, text):
        """``= t`` or a second predicate: no window, the residual runs on
        every candidate the route hands out."""
        engine = windowed[1]
        plan = plan_query(parse_query(text))
        assert plan.window == ()
        filtered_before = engine.stats.rows_filtered
        _, examined = _counted(engine, "rows_scanned", lambda: engine.run(text))
        assert engine.stats.rows_filtered - filtered_before == examined
        assert _window_parity(engine, text)

    @settings(max_examples=60, deadline=None)
    @given(
        lower=st.sampled_from([">", ">="]),
        upper=st.sampled_from(["<", "<="]),
        lo=st.integers(-4, 12), hi=st.integers(-4, 12),
        lo_shift=st.sampled_from([0, 0.5, 1, 150, -1]),
        hi_shift=st.sampled_from([0, 0.5, 1, 150, -1]),
    )
    def test_random_windows_around_bucket_edges(
        self, windowed, lower, upper, lo, hi, lo_shift, hi_shift
    ):
        text = (
            f"{TS} {lower} {EDGE + 600 * lo + lo_shift} AND "
            f"{TS} {upper} {EDGE + 600 * hi + hi_shift}"
        )
        _window_parity(windowed[1], text)

    def test_only_the_edge_buckets_meet_the_residual(self, windowed):
        framework, engine = windowed
        text = self.WINDOWS["seven_buckets"]
        route = plan_query(parse_query(text)).index_route
        index = framework.channel.indexing.reference_peer().index
        buckets = index.time_buckets(*route.time_range)
        assert len(buckets) == 7
        edges = len(index.lookup("time", buckets[0])) + len(index.lookup("time", buckets[-1]))
        filtered_before = engine.stats.rows_filtered
        rows, examined = _counted(engine, "rows_scanned", lambda: engine.run(text))
        assert examined == len(index.lookup_time_range(*route.time_range)) == 28
        assert 0 < engine.stats.rows_filtered - filtered_before <= edges == 8
        assert len(rows) == 27  # EDGE + 150 .. EDGE + 4050, every 150 s

