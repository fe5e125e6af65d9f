"""The BENCH envelope and direction-aware bench diffing."""

import json

import pytest

from repro.bench.report import emit_json, results_dir, series_stats
from repro.errors import ObservabilityError
from repro.obs.benchtrend import (
    EXACT,
    HIGHER_IS_BETTER,
    SCHEMA_VERSION,
    TIMING,
    classify_metric,
    compare_dirs,
    config_fingerprint,
    diff_docs,
    load_bench,
    make_envelope,
)


def envelope(name="demo", seed=7, meta=None, **series):
    """A v2 doc with mean-bearing stats blocks for each kwarg series."""
    return make_envelope(
        name,
        {key: {**series_stats(vals), "values": list(vals)} for key, vals in series.items()},
        meta=meta or {"n_items": 4},
        seed=seed,
    )


class TestEnvelope:
    def test_envelope_fields(self):
        doc = envelope(tx_per_s=[100.0, 110.0])
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["name"] == "demo"
        assert doc["seed"] == 7
        assert doc["config_fingerprint"] == config_fingerprint("demo", {"n_items": 4})
        assert doc["series"]["tx_per_s"]["mean"] == 105.0

    def test_fingerprint_is_stable_and_config_sensitive(self):
        assert config_fingerprint("a", {"x": 1}) == config_fingerprint("a", {"x": 1})
        assert config_fingerprint("a", {"x": 1}) != config_fingerprint("a", {"x": 2})
        assert config_fingerprint("a", {"x": 1}) != config_fingerprint("b", {"x": 1})
        # Key order does not matter: the canonical form is sorted.
        assert config_fingerprint("a", {"x": 1, "y": 2}) == config_fingerprint(
            "a", {"y": 2, "x": 1}
        )


class TestEmitJson:
    def test_emit_json_honors_bench_dir_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert results_dir() == tmp_path
        path = emit_json("trial", {"msgs": [4.0, 6.0]}, meta={"k": 1}, seed=9)
        assert path.parent == tmp_path
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["seed"] == 9
        assert doc["series"]["msgs"]["mean"] == 5.0
        assert doc["series"]["msgs"]["values"] == [4.0, 6.0]

    def test_load_bench_rejects_garbage(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text("{not json")
        with pytest.raises(ObservabilityError):
            load_bench(bad)
        bad.write_text(json.dumps({"name": "v1", "series": {}}))  # no envelope
        with pytest.raises(ObservabilityError):
            load_bench(bad)


class TestClassifyMetric:
    def test_directions(self):
        assert classify_metric("tx_per_s") == HIGHER_IS_BETTER
        assert classify_metric("per_call_s") == TIMING  # not *_per_s
        assert classify_metric("storage_time_ms") == TIMING
        assert classify_metric("overhead_ratio") == TIMING
        assert classify_metric("msgs_per_tx") == EXACT
        assert classify_metric("pbft_instances") == EXACT


class TestDiffDocs:
    def test_equal_docs_pass(self):
        doc = envelope(tx_per_s=[100.0], msgs_per_tx=[4.0])
        assert diff_docs(doc, doc).ok

    def test_throughput_gates_under_timing_tolerance(self):
        base = envelope(tx_per_s=[100.0])
        # Machine-dependent: informational unless a timing tolerance gates it.
        assert diff_docs(base, envelope(tx_per_s=[50.0])).ok
        report = diff_docs(base, envelope(tx_per_s=[15.0]), timing_tolerance=4.0)
        assert not report.ok  # >5x below baseline
        assert report.regressions[0].series == "tx_per_s"
        assert diff_docs(base, envelope(tx_per_s=[25.0]), timing_tolerance=4.0).ok
        # A throughput *gain* never regresses.
        assert diff_docs(base, envelope(tx_per_s=[200.0]), timing_tolerance=4.0).ok

    def test_exact_metric_gates_both_directions(self):
        base = envelope(msgs_per_tx=[4.0])
        assert not diff_docs(base, envelope(msgs_per_tx=[5.0]), tolerance=0.1).ok
        assert not diff_docs(base, envelope(msgs_per_tx=[3.0]), tolerance=0.1).ok
        assert diff_docs(base, envelope(msgs_per_tx=[4.2]), tolerance=0.1).ok

    def test_timing_informational_without_explicit_tolerance(self):
        base = envelope(per_call_s=[1e-6])
        cur = envelope(per_call_s=[1e-3])  # 1000x slower
        assert diff_docs(base, cur).ok  # timing not gated by default
        report = diff_docs(base, cur, timing_tolerance=4.0)
        assert not report.ok  # but a generous explicit gate catches it
        assert diff_docs(base, envelope(per_call_s=[2e-6]), timing_tolerance=4.0).ok

    def test_missing_series_is_a_regression(self):
        base = envelope(msgs_per_tx=[4.0], tx_per_s=[100.0])
        cur = envelope(msgs_per_tx=[4.0])
        report = diff_docs(base, cur)
        assert not report.ok
        assert "missing" in report.regressions[0].note

    def test_new_series_is_informational(self):
        base = envelope(msgs_per_tx=[4.0])
        cur = envelope(msgs_per_tx=[4.0], blocks=[2.0])
        report = diff_docs(base, cur)
        assert report.ok
        assert any("new series" in d.note for d in report.deltas)

    def test_render_lines_summarize(self):
        report = diff_docs(envelope(msgs_per_tx=[4.0]), envelope(msgs_per_tx=[9.0]))
        lines = report.render_lines()
        assert lines[0].startswith("REGRESSED")
        assert "1 regression(s)" in lines[-1]


class TestCompareDirs:
    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{doc['name']}.json").write_text(json.dumps(doc))

    def test_injected_regression_fails_and_clean_run_passes(self, tmp_path):
        base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
        self._write(base_dir, envelope(msgs_per_tx=[4.0]))
        self._write(cur_dir, envelope(msgs_per_tx=[4.0]))
        assert compare_dirs(base_dir, cur_dir).ok
        self._write(cur_dir, envelope(msgs_per_tx=[8.0]))  # inject 2x regression
        assert not compare_dirs(base_dir, cur_dir).ok

    def test_no_baseline_is_informational(self, tmp_path):
        base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
        base_dir.mkdir()
        self._write(cur_dir, envelope(msgs_per_tx=[4.0]))
        report = compare_dirs(base_dir, cur_dir)
        assert report.ok
        assert any("no checked-in baseline" in d.note for d in report.deltas)

    def test_requested_name_missing_from_current_is_an_error(self, tmp_path):
        base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
        cur_dir.mkdir()
        self._write(base_dir, envelope(msgs_per_tx=[4.0]))
        with pytest.raises(ObservabilityError, match="missing"):
            compare_dirs(base_dir, cur_dir, names=["demo"])

    def test_empty_current_dir_is_an_error(self, tmp_path):
        (tmp_path / "cur").mkdir()
        with pytest.raises(ObservabilityError):
            compare_dirs(tmp_path, tmp_path / "cur")


class TestBenchDiffCli:
    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{doc['name']}.json").write_text(json.dumps(doc))

    def test_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
        self._write(base_dir, envelope(msgs_per_tx=[4.0]))
        self._write(cur_dir, envelope(msgs_per_tx=[4.0]))
        argv = ["bench-diff", "--baseline", str(base_dir), "--current", str(cur_dir)]
        assert main(argv) == 0
        self._write(cur_dir, envelope(msgs_per_tx=[8.0]))
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_usage_error_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["bench-diff", "--baseline", str(empty), "--current", str(empty)])
        assert code == 2

    def test_against_checked_in_baselines(self, tmp_path, monkeypatch, capsys):
        """The real repo baselines diff cleanly against themselves."""
        from repro.cli import main

        assert main(["bench-diff", "--current", "benchmarks/results"]) == 0
