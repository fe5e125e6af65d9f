"""Tests for ``repro lint``: the local rules, pragmas and baselines."""

import json

import pytest

from repro.analysis import (
    diff_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    parse_pragmas,
    write_baseline,
)
from repro.analysis.linter import is_chaincode_module
from repro.errors import AnalysisError

CC_PATH = "src/repro/chaincodes/example.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def cc_source(returns: str, imports: str = "import time") -> str:
    """A one-method ``Chaincode`` subclass returning *returns* (line 7)."""
    return (
        f"{imports}\n"
        "from repro.fabric.chaincode import Chaincode\n"
        "\n"
        "\n"
        "class Example(Chaincode):\n"
        "    def f(self, stub):\n"
        f"        return {returns}\n"
    )


class TestDeterminismRules:
    """A chaincode reads no clock and no environment (DET103): a value two
    runs of one host agree on can still differ between replicas. Random,
    uuid and set-order values differ from run to run, and the two-run
    differential (tests/test_differential.py) reports them."""

    def test_wall_clock_in_chaincode_flagged_with_location(self):
        findings = lint_source(cc_source("{'at': time.time()}"), CC_PATH)
        assert rule_ids(findings) == ["DET103"]
        f = findings[0]
        assert f.line == 7 and f.path == CC_PATH
        assert f.message == "time.time reads a clock in chaincode"
        assert "DET103" in f.render() and f"{CC_PATH}:7:" in f.render()
        assert "stub.get_timestamp" in f.fix_hint

    def test_import_alias_resolved(self):
        source = cc_source("t.time()", imports="import time as t")
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET103"]

    def test_from_import_resolved(self):
        source = cc_source("time()", imports="from time import time")
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET103"]

    def test_environ_flagged(self):
        source = cc_source("os.environ['HOME']", imports="import os")
        findings = lint_source(source, CC_PATH)
        assert rule_ids(findings) == ["DET103"]
        assert findings[0].message == "os.environ reads the environment in chaincode"

    def test_getenv_flagged(self):
        source = cc_source("os.getenv('HOME')", imports="import os")
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET103"]

    def test_module_level_env_read_flagged(self):
        source = cc_source("MODE", imports="import os\nMODE = os.environ.get('CC_MODE')")
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET103"]

    def test_json_dumps_without_sort_keys_flagged(self):
        source = "import json\n\ndef f(stub):\n    return json.dumps({'a': 1})\n"
        findings = lint_source(source, CC_PATH)
        assert rule_ids(findings) == ["DET105"]
        assert "canonical_json" in findings[0].fix_hint

    def test_json_dumps_with_sort_keys_clean(self):
        source = "import json\n\ndef f(stub):\n    return json.dumps({'a': 1}, sort_keys=True)\n"
        assert lint_source(source, CC_PATH) == []

    def test_determinism_rules_skip_non_chaincode_modules(self):
        # Outside chaincode a clock read signs nothing endorsers compare.
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(source, "src/repro/util/anything.py") == []

    def test_chaincode_detected_by_base_class_outside_tree(self):
        source = (
            "import time\n"
            "from repro.fabric.chaincode import Chaincode\n"
            "\n"
            "\n"
            "class Custom(Chaincode):\n"
            "    name = 'custom'\n"
            "\n"
            "    def stamp(self, stub):\n"
            "        return {'at': time.time()}\n"
        )
        assert rule_ids(lint_source(source, "plugins/custom.py")) == ["DET103"]


class TestHygieneRules:
    def test_bare_acquire_warned_everywhere(self):
        source = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "\n"
            "\n"
            "def f():\n"
            "    lock.acquire()\n"
            "    lock.release()\n"
        )
        findings = lint_source(source, "src/repro/util/x.py")
        assert "HYG201" in rule_ids(findings)

    def test_try_lock_not_flagged(self):
        source = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "\n"
            "\n"
            "def f():\n"
            "    return lock.acquire(blocking=False)\n"
        )
        assert lint_source(source, "src/repro/util/x.py") == []

    def test_swallowed_exception_warned(self):
        source = "def f():\n    try:\n        risky()\n    except Exception:\n        pass\n"
        findings = lint_source(source, "src/repro/util/x.py")
        assert rule_ids(findings) == ["HYG202"]
        assert findings[0].line == 4  # anchored at the except clause

    def test_handled_exception_clean(self):
        source = "def f():\n    try:\n        risky()\n    except Exception:\n        return None\n"
        assert lint_source(source, "src/repro/util/x.py") == []

    def test_mutable_default_flagged(self):
        source = "def f(items=[]):\n    return items\n"
        assert rule_ids(lint_source(source, "src/repro/util/x.py")) == ["HYG203"]

    def test_module_dict_mutation_in_function_warned(self):
        source = "CACHE = {}\n\n\ndef remember(k, v):\n    CACHE[k] = v\n"
        assert rule_ids(lint_source(source, "src/repro/util/x.py")) == ["HYG204"]

    def test_local_dict_mutation_clean(self):
        source = "def f(k, v):\n    cache = {}\n    cache[k] = v\n    return cache\n"
        assert lint_source(source, "src/repro/util/x.py") == []


class TestPragmas:
    SOURCE = cc_source("time.time()  # reprolint: disable=DET103")

    def test_line_pragma_suppresses(self):
        assert lint_source(self.SOURCE, CC_PATH) == []

    def test_line_pragma_is_rule_specific(self):
        source = cc_source("time.time()  # reprolint: disable=DET105")
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET103"]

    def test_file_pragma_suppresses_everywhere(self):
        source = "# reprolint: disable-file=DET103\n" + cc_source("time.time()")
        assert lint_source(source, CC_PATH) == []

    def test_bare_disable_suppresses_all_rules(self):
        source = cc_source("time.time()  # reprolint: disable")
        assert lint_source(source, CC_PATH) == []

    def test_parse_pragmas_collects_both_kinds(self):
        pragmas = parse_pragmas(
            "# reprolint: disable-file=DET103\nx = 1  # reprolint: disable=HYG204\n"
        )
        assert not pragmas.allows("DET103", 99)
        assert not pragmas.allows("HYG204", 2)
        assert pragmas.allows("HYG204", 1)

    @pytest.mark.parametrize("pragma", [
        "# reprolint: disable=DET999",
        "# reprolint: disable=DET101",           # a retired rule suppresses nothing
        "# reprolint: disable-file=HYG204,FLOW599",
    ])
    def test_pragma_naming_an_unknown_rule_is_an_error(self, pragma):
        with pytest.raises(AnalysisError, match="x.py:2: pragma names unknown rule"):
            lint_source(f"x = 1\ny = 2  {pragma}\n", "x.py")


class TestRepoHygiene:
    def test_repo_is_self_clean(self):
        # The acceptance bar: every rule over the codebase, no baseline.
        assert lint_paths(["src/repro"]).findings == []

    def test_chaincode_modules_detected_by_path(self):
        import ast

        assert is_chaincode_module("src/repro/chaincodes/data.py", ast.parse(""))
        assert not is_chaincode_module("src/repro/query/executor.py", ast.parse(""))

    def test_missing_target_is_usage_error(self):
        with pytest.raises(AnalysisError):
            lint_paths(["no/such/dir"])

    def test_syntax_error_is_analysis_error(self):
        with pytest.raises(AnalysisError):
            lint_source("def broken(:\n", "x.py")


class TestBaseline:
    def test_roundtrip_and_diff(self, tmp_path):
        findings = lint_source(cc_source("time.time()"), CC_PATH)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        known = load_baseline(baseline_file)
        assert known == {f.key() for f in findings}
        assert diff_baseline(findings, known) == []
        fresh = lint_source(cc_source("os.getenv('X')", imports="import os"), CC_PATH)
        assert [f.rule_id for f in diff_baseline(findings + fresh, known)] == ["DET103"]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(["not", "a", "dict"]))
        with pytest.raises(AnalysisError):
            load_baseline(bad)


class TestExpandedSources:
    """Regression net for DET103's clock table: every spelling is a read."""

    @pytest.mark.parametrize("call", [
        "time.monotonic()", "time.monotonic_ns()", "time.perf_counter()",
        "time.perf_counter_ns()", "time.process_time()", "time.thread_time()",
        "time.clock_gettime(0)", "time.clock_gettime_ns(0)",
    ])
    def test_clock_variants_flagged(self, call):
        assert rule_ids(lint_source(cc_source(call), CC_PATH)) == ["DET103"]

    def test_datetime_now_flagged_through_alias(self):
        source = cc_source(
            "dt.now().isoformat()", imports="from datetime import datetime as dt"
        )
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET103"]


class TestMultiRulePragmas:
    def test_line_pragma_with_rule_list(self):
        source = cc_source(
            "json.dumps({}), time.time()  # reprolint: disable=DET103,DET105",
            imports="import json\nimport time",
        )
        assert lint_source(source, CC_PATH) == []

    def test_line_pragma_list_is_still_specific(self):
        source = cc_source(
            "json.dumps({}), time.time()  # reprolint: disable=DET105,HYG204",
            imports="import json\nimport time",
        )
        assert rule_ids(lint_source(source, CC_PATH)) == ["DET103"]

    def test_disable_file_with_rule_list(self):
        source = "# reprolint: disable-file=DET103,DET105\n" + cc_source(
            "time.time(), json.dumps({})", imports="import time\nimport json"
        )
        assert lint_source(source, CC_PATH) == []

    def test_disabled_file_findings_do_not_reach_the_baseline_diff(self):
        source = "# reprolint: disable-file=DET103\n" + cc_source(
            "time.time(), json.dumps({})", imports="import time\nimport json"
        )
        findings = lint_source(source, CC_PATH)
        # Only the non-suppressed finding is left to diff against a baseline.
        assert [f.rule_id for f in diff_baseline(findings, set())] == ["DET105"]


class TestBaselineStability:
    def test_write_is_deduped_and_sorted(self, tmp_path):
        findings = lint_source(
            cc_source("time.time(), os.getenv('X')", imports="import time\nimport os"),
            CC_PATH,
        )
        target = tmp_path / "b.json"
        # Duplicates and arbitrary input order must not change the bytes.
        write_baseline(target, list(reversed(findings)) + findings)
        first = target.read_bytes()
        write_baseline(target, findings + findings)
        assert target.read_bytes() == first
        payload = json.loads(first)
        assert len(payload["findings"]) == len(findings)
        keys = [(f["path"], f["rule_id"]) for f in payload["findings"]]
        assert keys == sorted(keys)

    def test_baseline_identity_ignores_line_moves(self, tmp_path):
        original = lint_source(cc_source("time.time()"), CC_PATH)
        target = tmp_path / "b.json"
        write_baseline(target, original)
        shifted = lint_source("\n\n\n" + cc_source("time.time()"), CC_PATH)
        assert shifted[0].line != original[0].line
        assert diff_baseline(shifted, load_baseline(target)) == []
