"""Critical-path extraction over the cross-node causal DAG of a committed tx.

The acceptance bar from the tracing work: for a standard submit+retrieve
run, ``critical_path`` must reconstruct a single causal DAG spanning at
least three distinct nodes (client, a peer, the orderer/validators) and
its segment attribution must sum to within 5% of the transaction's
end-to-end span duration. (The algorithm partitions the root's window
exactly, so the real error is 0 — the 5% bound is the contract.)
"""

import json

import pytest

from repro import obs
from repro.core import Client, Framework, FrameworkConfig
from repro.obs.critpath import critical_path, tx_anchor
from repro.errors import ObservabilityError
from repro.trust import SourceTier


@pytest.fixture(autouse=True)
def _no_global_tracer_leak():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def traced_commit():
    """One traced submit (BFT path); returns (tracer, receipt)."""
    with obs.enabled() as tracer:
        framework = Framework(FrameworkConfig())
        client = Client(
            framework, framework.register_source("cp-cam", tier=SourceTier.TRUSTED)
        )
        tracer.clear()
        receipt = client.submit(
            b"critpath payload " * 64,
            {"timestamp": 1.0, "camera_id": "cp-cam",
             "detections": [{"vehicle_class": "car", "confidence": 0.95}]},
        )
    assert receipt.ok
    return tracer, receipt


class TestCriticalPath:
    def test_dag_spans_at_least_three_nodes(self, traced_commit):
        tracer, receipt = traced_commit
        cp = critical_path(tracer, receipt.tx_id)
        assert "client" in cp.nodes
        assert any(n.startswith("peer") for n in cp.nodes)
        assert any(n == "orderer" or n.startswith("validator") for n in cp.nodes)
        assert len(cp.nodes) >= 3

    def test_attribution_sums_to_wall_time(self, traced_commit):
        tracer, receipt = traced_commit
        cp = critical_path(tracer, receipt.tx_id)
        assert cp.wall_s > 0
        assert cp.attributed_s == pytest.approx(cp.wall_s, rel=0.05)

    def test_segments_are_contiguous_and_ordered(self, traced_commit):
        tracer, receipt = traced_commit
        cp = critical_path(tracer, receipt.tx_id)
        cursor = None
        for seg in cp.segments:
            assert seg.end_s > seg.start_s
            if cursor is not None:
                assert seg.start_s == pytest.approx(cursor, abs=1e-9)
            cursor = seg.end_s

    def test_path_visits_multiple_nodes(self, traced_commit):
        tracer, receipt = traced_commit
        cp = critical_path(tracer, receipt.tx_id)
        assert len(set(cp.path_nodes)) >= 2
        assert cp.path_nodes[0] == "client"

    def test_by_stage_rows_cover_all_attributed_time(self, traced_commit):
        tracer, receipt = traced_commit
        cp = critical_path(tracer, receipt.tx_id)
        rows = cp.by_stage()
        assert sum(r.total_s for r in rows) == pytest.approx(cp.attributed_s)
        assert rows == sorted(rows, key=lambda r: r.total_s, reverse=True)

    def test_prefix_and_latest_anchor(self, traced_commit):
        tracer, receipt = traced_commit
        by_prefix = tx_anchor(tracer, receipt.tx_id[:12])
        assert by_prefix.attrs.get("tx_id", "").startswith(receipt.tx_id[:12])
        assert tx_anchor(tracer, "latest") is not None

    def test_unknown_tx_raises_with_candidates(self, traced_commit):
        tracer, _receipt = traced_commit
        with pytest.raises(ObservabilityError, match="no committed tx"):
            critical_path(tracer, "ffffffffffff")

    def test_render_and_json_round_trip(self, traced_commit):
        tracer, receipt = traced_commit
        cp = critical_path(tracer, receipt.tx_id)
        text = "\n".join(cp.render_lines())
        assert receipt.tx_id[:8] in text
        doc = json.loads(json.dumps(cp.to_dict()))
        assert doc["tx_id"] == cp.tx_id
        assert len(doc["segments"]) == len(cp.segments)


class TestSpanNode:
    def test_nearest_node_attr_wins(self):
        with obs.enabled() as tracer:
            with tracer.span("outer", attrs={"node": "peer0"}):
                with tracer.span("mid"):
                    with tracer.span("leaf", attrs={"replica": "validator-2"}):
                        pass
                with tracer.span("order") as sp:
                    sp.set_attr("orderer", "bft")  # set after open, still its own
        (leaf,) = tracer.spans("leaf")
        (mid,) = tracer.spans("mid")
        (order,) = tracer.spans("order")
        assert leaf.node == "validator-2"
        assert mid.node == "peer0"  # inherited from the span it opened under
        assert order.node == "orderer"

    def test_unattributed_span_defaults_to_client(self):
        with obs.enabled() as tracer:
            with tracer.span("bare"):
                pass
        assert tracer.spans("bare")[0].node == "client"


class TestChromeTraceByNode:
    def test_one_process_row_per_node(self, traced_commit, tmp_path):
        tracer, receipt = traced_commit
        cp = critical_path(tracer, receipt.tx_id)
        events = obs.chrome_trace(tracer, trace_id=cp.trace_id)["traceEvents"]
        meta = [e for e in events if e.get("ph") == "M"]
        row_names = {e["args"]["name"] for e in meta}
        assert set(cp.nodes) <= row_names
        pids = {e["pid"] for e in meta}
        assert len(pids) == len(meta)  # one pid per node
        # Every duration event lands on a declared process row.
        assert {e["pid"] for e in events if e.get("ph") == "X"} <= pids
        out = tmp_path / "trace.json"
        obs.write_chrome_trace(out, tracer, trace_id=cp.trace_id)
        assert json.loads(out.read_text())["traceEvents"]


class TestCritpathCli:
    def test_cli_prints_attribution_table(self, capsys):
        from repro.cli import main

        assert main(["critpath", "latest"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "client" in out

    def test_cli_unknown_tx_exits_2(self, capsys):
        from repro.cli import main

        assert main(["critpath", "ffffffffffff"]) == 2
