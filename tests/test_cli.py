"""Smoke tests for the CLI."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.analysis.runtime import MODES
from repro.cli import _build_parser, main

REPO = Path(__file__).resolve().parents[1]


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

    def test_query_prints_the_fields_a_select_keeps(self, capsys):
        text = "SELECT metadata.camera_id WHERE metadata.timestamp > 0 LIMIT 2"
        assert main(["query", text, "--videos", "2"]) == 0
        rows = [line.strip() for line in capsys.readouterr().out.splitlines() if line.startswith("  {")]
        assert len(rows) == 2
        for row in map(json.loads, rows):
            assert set(row) == {"cid", "entry_id", "metadata"}
            assert set(row["metadata"]) == {"camera_id"}

    def test_query_text_that_does_not_parse_is_one_line_and_exit_2(self, capsys):
        assert main(["query", "metadata.timestamp < 1e12", "--videos", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro query: trailing input at 'e12'\n"
        assert "matched:" not in captured.out

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

    def test_prof_explains_one_tx_and_traces_only_it(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["prof", "demo", "--items", "1", "--tx", "latest",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "cost centers" in out
        assert "storage breakdown (Fig. 5)" in out
        assert "retrieval breakdown (Fig. 6)" in out
        assert "critical path" in out
        events = json.loads(out_file.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        # One item stores and retrieves as two traces; --tx keeps the
        # committed tx's, so every node row holds a single lane.
        names = {e["name"] for e in spans}
        assert "client.submit" in names and "client.retrieve" not in names
        assert {e["tid"] for e in spans} == {1}

    def test_prof_json_carries_the_critical_path(self, capsys):
        assert main(["prof", "demo", "--items", "1", "--tx", "latest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["critical_path"]["segments"]
        assert doc["invoke_coverage"] > 0

    @pytest.mark.parametrize(
        "argv", [["prof", "demo"], ["prof", "demo", "--tx", "latest"]]
    )
    def test_every_out_flag_writes_the_per_node_chrome_trace(self, tmp_path, argv):
        out_file = tmp_path / "trace.json"
        assert main([*argv, "--items", "1", "--out", str(out_file)]) == 0
        events = json.loads(out_file.read_text())["traceEvents"]
        rows = {e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"}
        assert {"client", "orderer"} <= set(rows)
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and {e["pid"] for e in spans} == set(rows.values())

    def test_prof_leaves_global_tracer_and_profiler_disabled(self):
        from repro.obs import get_profiler, get_tracer

        assert main(["prof", "demo", "--items", "1"]) == 0
        assert get_tracer() is None
        assert get_profiler() is None

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

    def test_a_run_that_stores_nothing_fails(self, capsys, monkeypatch):
        """Zero loss of zero stored entries is no pass: with every
        ``data_upload.store`` refused, the run exits 1."""
        from repro.chaincodes import DataUploadChaincode
        from repro.errors import ChaincodeError

        def refuse(self, stub, cid, metadata_json):
            raise ChaincodeError("store refused")

        monkeypatch.setattr(DataUploadChaincode, "store", refuse)
        assert main(["chaos", "run", "partition", "--seed", "0", "--cycles", "4"]) == 1
        out = capsys.readouterr().out
        assert "0/4 submitted" in out
        assert "data loss  : 0" in out
        assert "no cycle stored an entry" in out

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["block", "abc"], "block number must be an integer, got 'abc'"),
            (["block", "999"], "no block 999"),
            (["tx", "nosuch"], "transaction 'nosuch' not found"),
        ],
    )
    def test_explorer_bad_lookup_is_usage_error(self, capsys, argv, message):
        assert main(["explorer", *argv, "--videos", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro explorer: {message}")
        assert captured.out == ""


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

    @staticmethod
    def _chaincode(module: str, returns: str) -> str:
        """A chaincode whose one function returns *returns* (line 7)."""
        return (
            f"import {module}\n"
            "from repro.fabric.chaincode import Chaincode\n\n\n"
            "class Bad(Chaincode):\n"
            "    def f(self, stub):\n"
            f"        return {returns}\n"
        )

    def test_seeded_wall_clock_read_fails_with_rule_and_location(self, capsys, tmp_path):
        chaincodes = tmp_path / "chaincodes"
        chaincodes.mkdir()
        target = chaincodes / "bad.py"
        target.write_text(self._chaincode("time", "{'at': time.time()}"))
        assert main(["lint", str(target), "--baseline", str(tmp_path / "b.json")]) == 1
        out = capsys.readouterr().out
        assert "DET103" in out
        assert "bad.py:7:" in out

    def test_json_format(self, capsys, tmp_path):
        chaincodes = tmp_path / "chaincodes"
        chaincodes.mkdir()
        (chaincodes / "bad.py").write_text(self._chaincode("os", "os.getenv('MODE')"))
        (chaincodes / "dump.py").write_text(
            "import json\n\n\ndef f(stub):\n    return json.dumps({'a': 1})\n"
        )
        assert main([
            "lint", str(chaincodes), "--format", "json",
            "--baseline", str(tmp_path / "b.json"),
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        # One report for both files, in path order.
        assert [f["rule_id"] for f in payload["findings"]] == ["DET103", "DET105"]
        assert set(payload) == {"paths", "findings", "baselined", "stats", "ok"}

    def test_baseline_workflow(self, capsys, tmp_path):
        chaincodes = tmp_path / "chaincodes"
        chaincodes.mkdir()
        (chaincodes / "old.py").write_text(self._chaincode("time", "time.time()"))
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(chaincodes), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        # The accepted finding no longer fails the gate...
        assert main(["lint", str(chaincodes), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # ...but a fresh one still does.
        (chaincodes / "new.py").write_text(self._chaincode("os", "os.environ['MODE']"))
        assert main(["lint", str(chaincodes), "--baseline", str(baseline)]) == 1

    def test_missing_path_is_usage_error(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope"), "--baseline",
                     str(tmp_path / "b.json")]) == 2

    def test_two_roots_with_one_module_name_report_both_roots_findings(
        self, capsys, tmp_path, monkeypatch
    ):
        """Two roots that hold the same dotted module name are two files,
        each linted and reported; a file named twice is linted once."""
        monkeypatch.chdir(tmp_path)
        roots = []
        for side in ("a", "b"):
            pkg = tmp_path / side / "chaincodes"
            pkg.mkdir(parents=True)
            (pkg / "m.py").write_text(
                "import time\n\n\ndef seal(stub):\n    return time.time()\n"
            )
            roots.append(str(pkg))
        assert main(["lint", *roots, roots[0], "--baseline", "b.json", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["modules"] == 2
        assert [(f["path"], f["line"]) for f in payload["findings"]] == [
            ("a/chaincodes/m.py", 5), ("b/chaincodes/m.py", 5)
        ]

    def test_pragma_naming_an_unknown_rule_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text("import time\nT = time.time()  # reprolint: disable=DET101\n")
        assert main(["lint", str(target), "--baseline", str(tmp_path / "b.json")]) == 2
        assert "stale.py:2: pragma names unknown rule(s) ['DET101']" in capsys.readouterr().err

    def test_repo_is_clean_against_checked_in_baseline(self, capsys, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["lint"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out


class TestSanitizeRunCli:
    """A sanitized chaos run: ``chaos run --sanitize``."""

    def test_short_standard_run_clean(self, capsys):
        assert main(["chaos", "run", "standard", "--seed", "0", "--cycles", "8",
                     "--sanitize", "all"]) == 0
        out = capsys.readouterr().out
        assert "data loss  : 0" in out
        assert f"sanitizers : PASS ({', '.join(sorted(MODES))})" in out

    def test_json_output(self, capsys):
        assert main(["chaos", "run", "standard", "--seed", "1", "--cycles", "6",
                     "--sanitize", "ledger", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data_loss"] == 0
        assert payload["sanitizers"]["ok"] is True
        assert payload["sanitizers"]["modes"] == ["ledger"]
        assert payload["sanitizers"]["checks"]["ledger"] > 0

    def test_bad_mode_is_usage_error(self, capsys):
        # The retired ``locks`` mode gets no alias: it reads like any stranger.
        for stranger in ("turbo", "locks"):
            assert main(["chaos", "run", "standard", "--sanitize", stranger]) == 2
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
                     "--sanitize", "index,ledger"]) == 0
        out = capsys.readouterr().out
        assert "sanitizers : PASS (index, ledger)" in out


class TestLintTreeCli:
    """``repro lint`` over a package tree: module naming, pragmas, stats and
    the baseline."""

    @staticmethod
    def _fixture_tree(tmp_path):
        """One DET103 positive in a chaincode package, plus one suppressed."""
        pkg = tmp_path / "pkg"
        (pkg / "chaincodes").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "chaincodes" / "__init__.py").write_text("")
        (pkg / "chaincodes" / "seal.py").write_text(
            "import time\n\n\n"
            "def seal(stub, payload):\n"
            "    return {'p': payload, 'at': time.time()}\n"
        )
        # Suppressed at its line: must not count as a finding.
        (pkg / "chaincodes" / "quiet.py").write_text(
            "import time\n\n\n"
            "def ok(stub):\n"
            "    return {'t': time.time()}  # reprolint: disable=DET103\n"
        )
        return pkg

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "ok.py").write_text("def add(a, b):\n    return a + b\n")
        assert main(["lint", str(pkg),
                     "--baseline", str(tmp_path / "b.json")]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_fixture_tree_reports_each_finding_once(self, capsys, tmp_path):
        pkg = self._fixture_tree(tmp_path)
        assert main(["lint", str(pkg), "--format", "json",
                     "--baseline", str(tmp_path / "b.json")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [(f["rule_id"], f["path"].rsplit("/", 1)[-1], f["line"])
                for f in payload["findings"]] == [("DET103", "seal.py", 5)]
        assert payload["stats"] == {"modules": 4, "suppressed": 1}

    def test_baseline_workflow(self, capsys, tmp_path):
        pkg = self._fixture_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(pkg), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(pkg), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # A fresh finding still fails the gate.
        (pkg / "chaincodes" / "fresh.py").write_text(
            "import os\n\n\ndef leak(stub):\n    return os.getenv('HOME')\n"
        )
        assert main(["lint", str(pkg), "--baseline", str(baseline)]) == 1
        assert "fresh.py:5:" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys, tmp_path):
        # A missing path beside a real package refuses the whole run
        # rather than analysing the part that exists.
        pkg = self._fixture_tree(tmp_path)
        assert main(["lint", str(pkg), str(tmp_path / "nope"),
                     "--baseline", str(tmp_path / "b.json")]) == 2
        captured = capsys.readouterr()
        assert "DET103" not in captured.out
        assert "does not exist" in captured.err

    def test_repo_is_clean_against_checked_in_baseline(self, capsys, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["baselined"] == 0
        # Clean without a pragma: nothing is suppressed either.
        assert payload["stats"]["modules"] > 100
        assert payload["stats"]["suppressed"] == 0


class TestDocsNameRealCommands:
    """Every ``python -m repro <cmd>`` and ```repro <cmd>`` the docs, the
    examples and CI spell is a subcommand the parser defines, so a deleted
    command cannot live on in a runbook."""

    SOURCES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
               "examples/**/*.py", ".github/workflows/ci.yml")
    COMMAND = re.compile(r"(?:python -m repro|`repro) ([a-z][a-z0-9-]*)")

    def test_every_named_command_is_a_subparser(self):
        (subparsers,) = [a for a in _build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        named = {}
        for pattern in self.SOURCES:
            for path in sorted(REPO.glob(pattern)):
                for match in self.COMMAND.finditer(path.read_text(encoding="utf-8")):
                    named.setdefault(match.group(1), set()).add(
                        str(path.relative_to(REPO)))
        assert {"chaos", "prof", "explorer", "metrics"} <= set(named)
        stale = {cmd: sorted(where) for cmd, where in named.items()
                 if cmd not in subparsers.choices}
        assert not stale, f"docs name commands the CLI does not define: {stale}"
