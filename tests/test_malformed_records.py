"""Client records whose array or ordering fields have the wrong shape.

A record's ``detections`` / ``violations`` are client data: a value that is
not a list, or an element that is not an object, must neither fail a commit
(and so split the replicas) nor raise out of a query. Such a record indexes
nothing under those fields, and an array predicate does not match it, so
the index route and the full scan agree. ``ORDER BY`` over values that do
not order raises a typed :class:`QueryError`.
"""

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.errors import QueryError
from repro.fabric.snapshot import state_digest
from repro.index import PeerIndex
from repro.trust import SourceTier

MALFORMED = [5, True, 1.5, "car", {"vehicle_class": "car"}, ["car"]]
IDS = ["int", "bool", "float", "str", "object", "list_of_str"]


def _framework(**overrides):
    return Framework(FrameworkConfig(consensus="solo", n_ipfs_nodes=2, **overrides))


def _client(framework, name="cam-2", tier=SourceTier.TRUSTED):
    return Client(framework, framework.register_source(name, tier=tier))


def _meta(camera, ts, **extra):
    return {"camera_id": camera, "timestamp": ts, **extra}


def _assert_replicas_agree(framework):
    framework.channel.flush()
    peers = list(framework.channel.peers.values())
    assert len({p.ledger.height for p in peers}) == 1
    assert len({state_digest(p.world) for p in peers}) == 1
    assert len({p.index.root() for p in peers}) == 1
    assert peers[0].index.height == peers[0].ledger.height
    for peer in peers:
        rebuilt = PeerIndex.from_world(peer.world, peer.ledger.height)
        assert rebuilt.root() == peer.index.root()


class TestCommit:
    @pytest.mark.parametrize("tier", [SourceTier.TRUSTED, SourceTier.UNTRUSTED])
    @pytest.mark.parametrize("field", ["detections", "violations"])
    @pytest.mark.parametrize("value", MALFORMED, ids=IDS)
    def test_a_malformed_array_field_commits_on_every_replica(self, value, field, tier):
        framework = _framework()
        client = _client(framework, tier=tier)
        receipt = client.submit(b"y" * 100, _meta("cam-2", 2.0, **{field: value}))
        assert receipt.ok
        _assert_replicas_agree(framework)
        after = client.submit(b"z" * 100, _meta("cam-2", 3.0))
        assert after.ok
        _assert_replicas_agree(framework)
        assert {r.entry_id for r in client.query("metadata.camera_id = 'cam-2'")} == {
            receipt.entry_id, after.entry_id,
        }


@pytest.fixture(scope="module")
def mixed():
    """One well-formed car record beside one record per malformed shape."""
    framework = _framework()
    client = _client(framework)
    good = client.submit(b"good", _meta("cam-1", 1.0, detections=[{"vehicle_class": "car"}]))
    malformed = {
        client.submit(b"bad-%d" % i, _meta("cam-2", 2.0 + i, detections=value)).entry_id
        for i, value in enumerate(MALFORMED)
    }
    return framework, client, good.entry_id, malformed


class TestArrayPredicates:
    @pytest.mark.parametrize("text, expected", [
        ("vehicle_class = 'car'", "good"),
        ("vehicle_class = 'car' OR metadata.camera_id = 'cam-9'", "good"),
        ("vehicle_class IN ('car', 'bus') OR metadata.camera_id = 'cam-9'", "good"),
        ("NOT vehicle_class = 'car' AND metadata.timestamp > 0", "malformed"),
        ("color = 'red' OR violation_type = 'speeding'", "none"),
    ], ids=["indexed", "scan", "in_scan", "not", "other_arrays"])
    def test_only_object_elements_of_a_list_match(self, mixed, text, expected):
        _, client, good, malformed = mixed
        want = {"good": {good}, "malformed": malformed, "none": set()}[expected]
        assert {r.entry_id for r in client.engine.run(text)} == want
        assert {r["entry_id"] for r in client.engine.scan(text)} == want

    def test_the_index_sanitizer_finds_both_routes_agree(self):
        import repro.analysis.runtime as runtime

        try:
            framework = _framework(sanitize="index")
            client = _client(framework)
            client.submit(b"good", _meta("cam-1", 1.0, detections=[{"vehicle_class": "car"}]))
            for i, value in enumerate(MALFORMED):
                client.submit(b"bad-%d" % i, _meta("cam-2", 2.0 + i, detections=value))
            for text in ("vehicle_class = 'car'", "vehicle_class = 'car' OR source_id = 'x'"):
                assert len(client.engine.run(text)) == 1
            report = framework.sanitizer.finalize()
        finally:
            runtime._ACTIVE = None
        assert not [f for f in report.findings if f.rule_id == "SAN309"], report.render()


class TestOrderBy:
    TEXT = "metadata.timestamp > 0 ORDER BY metadata.camera_id"

    @pytest.fixture(scope="class")
    def client(self):
        framework = _framework()
        client = _client(framework)
        client.submit(b"a", _meta("cam-1", 1.0))
        client.submit(b"b", _meta(7, 2.0))
        client.submit(b"c", _meta("cam-3", 3.0, location={"lat": 1.0}))
        return client

    def test_mixed_types_raise_a_query_error_naming_the_field(self, client):
        with pytest.raises(QueryError, match="metadata.camera_id"):
            client.engine.run(self.TEXT)
        with pytest.raises(QueryError, match="metadata.camera_id"):
            client.engine.scan(self.TEXT)

    def test_missing_values_still_sort_last(self, client):
        rows = client.engine.run("metadata.timestamp > 0 ORDER BY metadata.location.lat")
        assert [r.record["metadata"].get("location") for r in rows] == [{"lat": 1.0}, None, None]
