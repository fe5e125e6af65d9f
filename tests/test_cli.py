"""Smoke tests for the CLI."""

import json

import pytest

from repro.analysis.runtime import MODES
from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "consensus=bft" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "integrity verified: True" in out
        assert "captured -> stored -> accessed" in out

    def test_ingest(self, capsys):
        assert main(["ingest", "--videos", "2", "--frames", "2", "--consensus", "solo"]) == 0
        out = capsys.readouterr().out
        assert "committed : 4/4" in out
        assert "tx/s" in out

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        out = capsys.readouterr().out
        assert '"camera_id"' in out and '"detections"' in out

    def test_figure_3(self, capsys):
        assert main(["figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "static" in out and "drone" in out

    def test_figure_4(self, capsys):
        assert main(["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "record bytes" in out

    def test_figure_5_and_6(self, capsys):
        assert main(["figure", "5"]) == 0
        out5 = capsys.readouterr().out
        assert "storage time" in out5 and "overhead" in out5
        assert main(["figure", "6"]) == 0
        out6 = capsys.readouterr().out
        assert "retrieval time" in out6

    def test_query(self, capsys):
        assert main(["query", "vehicle_class = 'car'", "--videos", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan   : INDEX class=car -> filter" in out
        assert "matched:" in out

    def test_export_and_inspect_bundle(self, capsys, tmp_path):
        out = tmp_path / "evidence.bundle"
        assert main(["export", str(out), "--videos", "2"]) == 0
        assert out.exists() and out.stat().st_size > 0
        capsys.readouterr()
        assert main(["inspect-bundle", str(out)]) == 0
        text = capsys.readouterr().out
        assert "signature OK" in text
        assert "hash-verified" in text

    def test_metrics_prometheus(self, capsys):
        assert main(["metrics", "--items", "1"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_blocks_total counter" in out
        assert 'repro_txs_total{code="valid"}' in out
        assert 'repro_spans_total{name="client.submit",status="ok"}' in out

    def test_metrics_json(self, capsys):
        import json

        assert main(["metrics", "--items", "1", "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["blocks_total"] >= 1
        assert "chain_height" in snap["gauges"]

    def test_trace_tree_and_chrome_export(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        assert main(["trace", "--items", "1", "--breakdown", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "client.submit" in out
        assert "fabric.peer.endorse" in out
        assert "storage breakdown (Fig. 5)" in out
        assert "retrieval breakdown (Fig. 6)" in out
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"], "chrome trace should contain events"

    @pytest.mark.parametrize(
        "argv", [["trace"], ["critpath", "latest"], ["prof", "demo"]]
    )
    def test_every_out_flag_writes_the_per_node_chrome_trace(self, tmp_path, argv):
        out_file = tmp_path / "trace.json"
        assert main([*argv, "--items", "1", "--out", str(out_file)]) == 0
        events = json.loads(out_file.read_text())["traceEvents"]
        rows = {e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"}
        assert {"client", "orderer"} <= set(rows)
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and {e["pid"] for e in spans} == set(rows.values())

    def test_trace_leaves_global_tracer_disabled(self):
        from repro.obs import get_tracer

        assert main(["trace", "--items", "1"]) == 0
        assert get_tracer() is None

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestChaosCommand:
    def test_chaos_list(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("standard", "corruption", "partition", "churn"):
            assert name in out

    def test_chaos_run_short_standard(self, capsys):
        assert main(["chaos", "run", "standard", "--seed", "0", "--cycles", "8"]) == 0
        out = capsys.readouterr().out
        assert "data loss  : 0" in out
        assert "fingerprint:" in out

    def test_chaos_run_json_and_metrics(self, capsys):
        assert main(["chaos", "run", "corruption", "--seed", "1", "--cycles", "8",
                     "--json", "--metrics"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[: out.index("\n# ")])  # JSON, then Prometheus text
        assert doc["data_loss"] == 0
        assert "repro_chaos_faults_total" in out

    def test_chaos_unknown_scenario_is_typed(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["chaos", "run", "definitely-not-a-scenario"])


class TestExplorerCli:
    def test_explorer_summary(self, capsys):
        assert main(["explorer", "summary", "--videos", "1"]) == 0
        out = capsys.readouterr().out
        assert "channel   : traffic" in out
        assert "chaincodes:" in out

    def test_explorer_blocks_and_provenance(self, capsys):
        assert main(["explorer", "blocks", "--videos", "1"]) == 0
        out = capsys.readouterr().out
        assert "data_upload.store(VALID)" in out
        assert main(["explorer", "provenance", "--videos", "1"]) == 0
        out = capsys.readouterr().out
        assert "captured@" in out and "stored@" in out

    def test_explorer_audit_passes_on_clean_ledger(self, capsys):
        assert main(["explorer", "audit", "--videos", "1"]) == 0
        out = capsys.readouterr().out
        assert "audit      : PASS" in out

    def test_explorer_trust_shows_score_timelines(self, capsys):
        """The snapshots are rider writes; the command's flush lands exactly
        one per source before the timelines are read."""
        assert main(["explorer", "trust", "--videos", "1"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "updates:" in line]
        assert lines and any(line.startswith("cam-00") for line in lines)
        assert all(" 1 updates: " in line for line in lines)


class TestHealthCli:
    def test_health_clean_run_is_healthy(self, capsys):
        assert main(["health", "--items", "2"]) == 0
        out = capsys.readouterr().out
        assert "overall: HEALTHY" in out
        assert "fabric.peers" in out and "ipfs.nodes" in out

    def test_health_json(self, capsys):
        assert main(["health", "--items", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "healthy"
        assert {c["component"] for c in payload["components"]} >= {
            "fabric.peers", "ipfs.nodes", "resilience.breakers",
        }


class TestTopCli:
    def test_top_plain_short_run(self, capsys):
        assert main(["top", "--plain", "--cycles", "7", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "cycle " in out
        assert "alerts:" in out
        assert "run complete:" in out


class TestChaosAlertsCli:
    def test_chaos_run_with_alert_gate(self, capsys):
        assert main(["chaos", "run", "standard", "--alerts", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data_loss"] == 0
        assert payload["alerts"]["ok"] is True
        fired = {e["rule"] for e in payload["alerts"]["log"] if e["state"] == "firing"}
        assert {"ipfs_node_down", "fabric_peer_down", "consensus_drop_storm"} <= fired
        resolved = {e["rule"] for e in payload["alerts"]["log"] if e["state"] == "resolved"}
        assert fired <= resolved


class TestLintCli:
    def test_clean_file_exits_zero(self, capsys, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("def add(a, b):\n    return a + b\n")
        assert main(["lint", str(target), "--baseline", str(tmp_path / "b.json")]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_seeded_wall_clock_read_fails_with_rule_and_location(self, capsys, tmp_path):
        chaincodes = tmp_path / "chaincodes"
        chaincodes.mkdir()
        target = chaincodes / "bad.py"
        target.write_text("import time\n\n\ndef stamp(stub):\n    return {'at': time.time()}\n")
        assert main(["lint", str(target), "--baseline", str(tmp_path / "b.json")]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out
        assert "bad.py:5:" in out

    def test_json_format(self, capsys, tmp_path):
        chaincodes = tmp_path / "chaincodes"
        chaincodes.mkdir()
        (chaincodes / "bad.py").write_text(
            "import uuid\n\n\ndef f(stub):\n    return str(uuid.uuid4())\n"
        )
        assert main([
            "lint", str(chaincodes), "--format", "json",
            "--baseline", str(tmp_path / "b.json"),
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["rule_id"] for f in payload["findings"]] == ["DET104"]

    def test_baseline_workflow(self, capsys, tmp_path):
        chaincodes = tmp_path / "chaincodes"
        chaincodes.mkdir()
        (chaincodes / "old.py").write_text(
            "import time\n\n\ndef f(stub):\n    return time.time()\n"
        )
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(chaincodes), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        # The accepted finding no longer fails the gate...
        assert main(["lint", str(chaincodes), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # ...but a fresh one still does.
        (chaincodes / "new.py").write_text(
            "import random\n\n\ndef g(stub):\n    return random.random()\n"
        )
        assert main(["lint", str(chaincodes), "--baseline", str(baseline)]) == 1

    def test_missing_path_is_usage_error(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope"), "--baseline",
                     str(tmp_path / "b.json")]) == 2

    def test_repo_is_clean_against_checked_in_baseline(self, capsys, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["lint"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out


class TestSanitizeRunCli:
    def test_short_standard_run_clean(self, capsys):
        assert main(["sanitize-run", "standard", "--seed", "0", "--cycles", "8"]) == 0
        out = capsys.readouterr().out
        assert "data loss 0" in out
        assert "no findings" in out
        for mode in MODES:
            assert mode in out

    def test_json_output(self, capsys):
        assert main(["sanitize-run", "standard", "--seed", "1", "--cycles", "6",
                     "--sanitize", "ledger", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data_loss"] == 0
        assert payload["sanitizers"]["ok"] is True
        assert payload["sanitizers"]["modes"] == ["ledger"]
        assert payload["sanitizers"]["checks"]["ledger"] > 0

    def test_bad_mode_is_usage_error(self, capsys):
        # The retired ``locks`` mode gets no alias: it reads like any stranger.
        for stranger in ("turbo", "locks"):
            assert main(["sanitize-run", "standard", "--sanitize", stranger]) == 2
            err = capsys.readouterr().err
            assert f"unknown sanitizer mode(s) ['{stranger}']" in err
            assert f"valid: {', '.join(MODES)}" in err

    def test_chaos_help_lists_every_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "--help"])
        out = "".join(capsys.readouterr().out.split())  # undo argparse wrapping
        assert ",".join(MODES) in out

    def test_chaos_run_accepts_sanitize_flag(self, capsys):
        assert main(["chaos", "run", "standard", "--seed", "0", "--cycles", "8",
                     "--sanitize", "all"]) == 0
        out = capsys.readouterr().out
        assert "sanitizers : PASS" in out


class TestFlowcheckCli:
    @staticmethod
    def _fixture_tree(tmp_path):
        """One true FLOW5xx positive, plus one suppressed flow."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "codec.py").write_text(
            "import json\n\n\ndef canonical_json(v):\n"
            "    return json.dumps(v, sort_keys=True).encode()\n"
        )
        # FLOW5xx: wall clock two calls upstream of the codec sink.
        (pkg / "seal.py").write_text(
            "import time\n"
            "from .codec import canonical_json\n\n\n"
            "def stamp():\n"
            "    return time.time()\n\n\n"
            "def seal(payload):\n"
            "    return canonical_json({'p': payload, 'at': stamp()})\n"
        )
        # Suppressed at the source line: must not count as a finding.
        (pkg / "quiet.py").write_text(
            "import time\n"
            "from .codec import canonical_json\n\n\n"
            "def ok():\n"
            "    t = time.time()  # reprolint: disable=FLOW501\n"
            "    return canonical_json({'t': t})\n"
        )
        return pkg

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "ok.py").write_text("def add(a, b):\n    return a + b\n")
        assert main(["flowcheck", str(pkg),
                     "--baseline", str(tmp_path / "b.json")]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_fixture_tree_reports_each_family_once(self, capsys, tmp_path):
        pkg = self._fixture_tree(tmp_path)
        assert main(["flowcheck", str(pkg),
                     "--baseline", str(tmp_path / "b.json")]) == 1
        out = capsys.readouterr().out
        assert out.count("FLOW501") == 1   # suppressed flow must not add one
        assert "quiet.py" not in out

    def test_json_output_carries_traces(self, capsys, tmp_path):
        pkg = self._fixture_tree(tmp_path)
        assert main(["flowcheck", str(pkg), "--format", "json",
                     "--baseline", str(tmp_path / "b.json")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        by_rule = {f["rule_id"]: f for f in payload["findings"]}
        assert set(by_rule) == {"FLOW501"}
        taint = by_rule["FLOW501"]
        assert "time.time() [wall clock]" in taint["trace"][0]
        assert "canonical_json() [sink]" in taint["trace"][-1]
        assert payload["stats"]["modules"] == 4

    def test_baseline_workflow(self, capsys, tmp_path):
        pkg = self._fixture_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["flowcheck", str(pkg), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["flowcheck", str(pkg), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # A fresh flow still fails the gate.
        (pkg / "fresh.py").write_text(
            "import os\n"
            "from .codec import canonical_json\n\n\n"
            "def leak():\n"
            "    return canonical_json(os.getenv('HOME'))\n"
        )
        assert main(["flowcheck", str(pkg), "--baseline", str(baseline)]) == 1
        assert "FLOW504" in capsys.readouterr().out

    def test_callgraph_export(self, capsys, tmp_path):
        pkg = self._fixture_tree(tmp_path)
        graph_file = tmp_path / "graph.json"
        main(["flowcheck", str(pkg), "--baseline", str(tmp_path / "b.json"),
              "--callgraph-out", str(graph_file)])
        graph = json.loads(graph_file.read_text())
        assert "pkg.seal.seal" in graph["functions"]
        assert ["pkg.seal.seal", "pkg.seal.stamp"] in graph["edges"]

    def test_missing_path_is_usage_error(self, capsys, tmp_path):
        assert main(["flowcheck", str(tmp_path / "nope"),
                     "--baseline", str(tmp_path / "b.json")]) == 2

    def test_repo_is_clean_against_checked_in_baseline(self, capsys, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["flowcheck"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out
