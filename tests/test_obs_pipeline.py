"""End-to-end tracing: a real submit→retrieve run yields a correct span tree,
a valid Chrome trace, and a per-stage breakdown that explains the wall time."""

import json

import pytest

from repro import obs
from repro.core import Client, Framework, FrameworkConfig
from repro.obs.breakdown import UNATTRIBUTED
from repro.trust import SourceTier


@pytest.fixture(autouse=True)
def _no_global_tracer_leak():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def traced_run():
    """One framework, one submit + retrieve, traced; shared by the assertions."""
    with obs.enabled() as tracer:
        framework = Framework(FrameworkConfig())
        client = Client(
            framework, framework.register_source("trace-cam", tier=SourceTier.TRUSTED)
        )
        tracer.clear()  # drop setup spans; keep only the pipelines under test
        receipt = client.submit(
            b"traced payload " * 64,
            {"timestamp": 1.0, "camera_id": "trace-cam",
             "detections": [{"vehicle_class": "car", "confidence": 0.9}]},
        )
        result = client.retrieve(receipt.entry_id)
    assert receipt.ok and result.verified
    return tracer


class TestStorageSpanTree:
    def test_submit_is_a_root(self, traced_run):
        roots = [s.name for s in traced_run.roots()]
        assert "client.submit" in roots

    def test_store_path_stages_present_under_submit(self, traced_run):
        (root,) = traced_run.spans("client.submit")
        names = {s.name for s in traced_run.descendants(root)}
        for required in (
            "submit.sign",
            "submit.admission",
            "ipfs.add",
            "ipfs.add_bytes",
            "fabric.invoke",
            "fabric.endorse",
            "fabric.peer.endorse",
            "fabric.order",
            "fabric.peer.commit",
            "submit.trust_update",
        ):
            assert required in names, f"missing {required} under client.submit"

    def test_endorse_nests_under_invoke_not_root(self, traced_run):
        (root,) = traced_run.spans("client.submit")
        by_id = {s.span_id: s for s in traced_run.finished}
        for peer_endorse in traced_run.spans("fabric.peer.endorse"):
            if peer_endorse.trace_id != root.trace_id:
                continue
            parent = by_id[peer_endorse.parent_id]
            assert parent.name == "fabric.endorse"
            grandparent = by_id[parent.parent_id]
            assert grandparent.name == "fabric.invoke"

    def test_commit_nests_under_deliver(self, traced_run):
        (root,) = traced_run.spans("client.submit")
        by_id = {s.span_id: s for s in traced_run.finished}
        commits = [
            s for s in traced_run.spans("fabric.peer.commit")
            if s.trace_id == root.trace_id
        ]
        assert commits, "no commit spans in the storage trace"
        for commit in commits:
            assert by_id[commit.parent_id].name == "fabric.deliver"

    def test_every_descendant_shares_the_root_trace(self, traced_run):
        (root,) = traced_run.spans("client.submit")
        for span in traced_run.descendants(root):
            assert span.trace_id == root.trace_id

    def test_all_spans_finished_and_ok(self, traced_run):
        assert all(s.finished for s in traced_run.finished)
        assert all(s.status == "ok" for s in traced_run.finished)


class TestRetrievalSpanTree:
    def test_retrieve_path_stages(self, traced_run):
        (root,) = traced_run.spans("client.retrieve")
        names = {s.name for s in traced_run.descendants(root)}
        for required in (
            "retrieve.acl",
            "query.get",
            "fabric.query",
            "query.fetch",
            "ipfs.cat",
            "query.verify",
            "retrieve.provenance",
        ):
            assert required in names, f"missing {required} under client.retrieve"

    def test_ipfs_cat_nests_under_query_fetch(self, traced_run):
        (root,) = traced_run.spans("client.retrieve")
        by_id = {s.span_id: s for s in traced_run.finished}
        cats = [s for s in traced_run.spans("ipfs.cat") if s.trace_id == root.trace_id]
        assert cats
        for cat in cats:
            assert by_id[cat.parent_id].name == "query.fetch"


class TestChromeTrace:
    def test_trace_is_valid_and_complete(self, traced_run, tmp_path):
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), traced_run)
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(traced_run.finished)
        for event in events:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["name"], str) and event["name"]
            assert "span_id" in event["args"]

    def test_one_lane_per_trace(self, traced_run):
        events = obs.chrome_trace(traced_run)["traceEvents"]
        rows = {e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"}
        assert set(rows) == {s.node for s in traced_run.finished}
        for node, pid in rows.items():
            lanes = {e["tid"] for e in events if e["ph"] == "X" and e["pid"] == pid}
            traces = {s.trace_id for s in traced_run.finished if s.node == node}
            assert len(lanes) == len(traces)


class TestBreakdown:
    def test_both_pipelines_present(self, traced_run):
        breakdowns = obs.pipeline_breakdown(traced_run)
        assert set(breakdowns) == {"storage", "retrieval"}
        assert breakdowns["storage"].samples == 1
        assert breakdowns["retrieval"].samples == 1

    def test_stages_sum_to_wall_time(self, traced_run):
        for bd in obs.pipeline_breakdown(traced_run).values():
            total = sum(s.total_s for s in bd.stages)
            # Exclusive times over the full tree partition the wall time.
            assert total == pytest.approx(bd.wall_s, rel=0.02)

    def test_coverage_at_least_90_percent(self, traced_run):
        for bd in obs.pipeline_breakdown(traced_run).values():
            assert bd.coverage >= 0.9, (
                f"{bd.pipeline}: only {bd.coverage:.0%} of wall time attributed"
            )

    def test_storage_reports_paper_stages(self, traced_run):
        bd = obs.pipeline_breakdown(traced_run)["storage"]
        stages = {s.stage for s in bd.stages}
        for expected in ("ipfs add", "endorse", "consensus (bft)", "validate+commit"):
            assert expected in stages

    def test_retrieval_reports_paper_stages(self, traced_run):
        bd = obs.pipeline_breakdown(traced_run)["retrieval"]
        stages = {s.stage for s in bd.stages}
        for expected in ("on-chain read", "off-chain fetch", "integrity verify"):
            assert expected in stages

    def test_shares_are_fractions_of_wall(self, traced_run):
        for bd in obs.pipeline_breakdown(traced_run).values():
            for stage in bd.stages:
                assert 0.0 <= stage.share <= 1.0

    def test_render_breakdown_mentions_figures(self, traced_run):
        text = obs.render_breakdown(obs.pipeline_breakdown(traced_run))
        assert "Fig. 5" in text and "Fig. 6" in text
        assert "TOTAL (wall)" in text

    def test_unattributed_is_only_root_self_time(self, traced_run):
        for bd in obs.pipeline_breakdown(traced_run).values():
            un = [s for s in bd.stages if s.stage == UNATTRIBUTED]
            assert len(un) <= 1
            if un:
                assert un[0].share < 0.1

    def test_empty_without_tracer(self):
        obs.disable()
        assert obs.pipeline_breakdown() == {}
