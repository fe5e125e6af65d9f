"""Tests for repro.analysis.flow — call graph and taint, through ``repro lint``.

Fixture trees are written under ``tmp_path`` as a small package and analyzed
through the same entry point the CLI uses, so resolution runs the full
import-alias path (the fixtures are *packages*, not single modules).
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import build_program, lint_paths, lint_source
from repro.analysis.flow.callgraph import module_name_for
from repro.errors import AnalysisError


def write_tree(root, files: dict):
    pkg = root / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        target = pkg / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return str(pkg)


def rule_ids(report):
    return [f.rule_id for f in report.findings]


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_syntax_error_is_typed(self, tmp_path):

        pkg = write_tree(tmp_path, {"bad.py": "def broken(:\n"})
        with pytest.raises(AnalysisError, match="cannot parse"):
            build_program([pkg])

    def test_module_naming_is_rooted_at_scan_parent(self):
        assert module_name_for(Path("src/repro/util/clock.py"), Path("src/repro")) \
            == "repro.util.clock"
        assert module_name_for(Path("src/repro/__init__.py"), Path("src/repro")) \
            == "repro"

    def test_direct_and_aliased_calls_resolve(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "a.py": "def helper():\n    return 1\n",
            "b.py": (
                "from .a import helper as h\n"
                "def caller():\n"
                "    return h()\n"
            ),
        })
        program = build_program([pkg])
        assert "pkg.a.helper" in program.edges["pkg.b.caller"]

    def test_method_resolves_through_base_class(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "m.py": (
                "class Base:\n"
                "    def shared_thing(self):\n"
                "        return 1\n"
                "class Child(Base):\n"
                "    def go(self):\n"
                "        return self.shared_thing()\n"
            ),
        })
        program = build_program([pkg])
        assert "pkg.m.Base.shared_thing" in program.edges["pkg.m.Child.go"]

    def test_two_roots_naming_one_module_are_refused(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = write_tree(tmp_path / "a", {"m.py": "X = 1\n"})
        b = write_tree(tmp_path / "b", {"m.py": "X = 2\n"})
        with pytest.raises(AnalysisError, match="are both module 'pkg'"):
            build_program([a, b])
        build_program([a, a])   # the same file twice is one module

    def test_nested_function_indexed_and_resolved(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "n.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return 2\n"
                "    return inner()\n"
            ),
        })
        program = build_program([pkg])
        assert "pkg.n.outer.<locals>.inner" in program.functions
        assert "pkg.n.outer.<locals>.inner" in program.edges["pkg.n.outer"]


# ---------------------------------------------------------------------------
# Taint pass (FLOW5xx)
# ---------------------------------------------------------------------------


SINK = "import json\n\ndef canonical_json(v):\n    return json.dumps(v, sort_keys=True).encode()\n"


class TestTaint:
    def test_acceptance_helper_two_calls_upstream(self, tmp_path):
        """The ISSUE's acceptance case (a): time.time() two calls upstream of
        canonical_json yields exactly one finding with the full chain."""
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "util.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
                "def mk_meta():\n"
                "    return {'at': stamp()}\n"
            ),
            "block.py": (
                "from .codec import canonical_json\n"
                "from .util import mk_meta\n"
                "def seal(payload):\n"
                "    meta = mk_meta()\n"
                "    return canonical_json({'p': payload, 'meta': meta})\n"
            ),
        })
        report = lint_paths([pkg])
        assert rule_ids(report) == ["FLOW501"]
        (finding,) = report.findings
        assert finding.path.endswith("block.py")
        # Full interprocedural witness: source, both hops, sink.
        trace = "\n".join(finding.trace)
        assert "time.time() [wall clock]" in trace
        assert "stamp()" in trace and "mk_meta()" in trace
        assert "canonical_json() [sink]" in trace
        # And the JSON view carries the same chain.
        assert finding.to_dict()["trace"] == list(finding.trace)

    def test_each_taint_kind_maps_to_its_rule(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import os\n"
                "import random\n"
                "import uuid\n"
                "from .codec import canonical_json\n"
                "def f_random():\n"
                "    return canonical_json(random.random())\n"
                "def f_uuid():\n"
                "    return canonical_json(str(uuid.uuid4()))\n"
                "def f_env():\n"
                "    return canonical_json(os.getenv('HOME'))\n"
                "def f_set(items):\n"
                "    s = set(items)\n"
                "    return canonical_json([x for x in s])\n"
                "def f_float(v):\n"
                "    return canonical_json(f'{v:.2f}')\n"
            ),
        })
        report = lint_paths([pkg])
        assert sorted(set(rule_ids(report))) == [
            "FLOW502", "FLOW503", "FLOW504", "FLOW505", "FLOW506",
        ]

    def test_sorted_kills_set_order_taint(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "from .codec import canonical_json\n"
                "def ok(items):\n"
                "    s = set(items)\n"
                "    return canonical_json(sorted(s))\n"
            ),
        })
        assert lint_paths([pkg]).findings == []

    def test_len_kills_value_taint(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import os\n"
                "from .codec import canonical_json\n"
                "def ok():\n"
                "    return canonical_json(len(os.getenv('HOME') or ''))\n"
            ),
        })
        assert lint_paths([pkg]).findings == []

    def test_gmtime_with_argument_is_a_pure_conversion(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def render(ts):\n"
                "    return canonical_json(time.strftime('%Y', time.gmtime(ts)))\n"
            ),
        })
        assert lint_paths([pkg]).findings == []

    def test_gmtime_without_argument_reads_the_clock(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def render():\n"
                "    return canonical_json(time.strftime('%Y', time.gmtime()))\n"
            ),
        })
        assert rule_ids(lint_paths([pkg])) == ["FLOW501"]

    def test_taint_through_class_field(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "class Node:\n"
                "    def observe(self):\n"
                "        self.last_seen = time.time()\n"
                "    def digestable(self):\n"
                "    	return canonical_json({'seen': self.last_seen})\n"
            ),
        })
        report = lint_paths([pkg])
        assert rule_ids(report) == ["FLOW501"]
        trace = "\n".join(report.findings[0].trace)
        assert "stored into field self.last_seen" in trace

    def test_taint_through_sink_wrapper(self, tmp_path):
        """A helper that forwards its argument into the sink counts as a
        sink for its callers (param→sink summary)."""
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def persist(doc):\n"
                "    return canonical_json(doc)\n"
                "def bad():\n"
                "    return persist({'t': time.time()})\n"
            ),
        })
        report = lint_paths([pkg])
        assert rule_ids(report) == ["FLOW501"]
        assert report.findings[0].path.endswith("m.py")
        assert "persist" in "\n".join(report.findings[0].trace)

    def test_pragma_at_sink_line_suppresses(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def bad():\n"
                "    return canonical_json(time.time())  # reprolint: disable=FLOW501\n"
            ),
        })
        assert lint_paths([pkg]).findings == []

    def test_pragma_at_source_line_suppresses_downstream(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "util.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # reprolint: disable=FLOW501\n"
            ),
            "m.py": (
                "from .codec import canonical_json\n"
                "from .util import stamp\n"
                "def bad():\n"
                "    return canonical_json(stamp())\n"
            ),
        })
        assert lint_paths([pkg]).findings == []

    def test_put_state_is_a_sink_by_method_name(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "m.py": (
                "import uuid\n"
                "def cc(stub):\n"
                "    stub.put_state('k', str(uuid.uuid4()))\n"
            ),
        })
        assert rule_ids(lint_paths([pkg])) == ["FLOW503"]


class TestNewEdges:
    """The four edges that make the flow pass a superset of the retired
    DET101–104/106/107 rules; each first input here is missed without it."""

    CC = (
        "import time\n"
        "from repro.fabric.chaincode import Chaincode\n"
        "class Stamp(Chaincode):\n"
        "    def stamp(self, stub):\n"
        "        return {'at': time.time()}\n"
        "    def _private(self, stub):\n"
        "        return time.time()\n"
        "class Child(Stamp):\n"
        "    def late(self, stub):\n"
        "        return time.time()\n"
        "class Plain:\n"
        "    def stamp(self):\n"
        "        return time.time()\n"
    )

    def test_chaincode_response_is_a_sink(self, tmp_path):
        report = lint_paths([write_tree(tmp_path, {"cc.py": self.CC})])
        # Public methods of Chaincode subclasses (the base chain walked);
        # not underscore methods, not a class outside the hierarchy.
        assert [(f.rule_id, f.line) for f in report.findings] == [
            ("FLOW501", 5), ("FLOW501", 10),
        ]
        assert report.findings[0].trace[-1].endswith(
            "tainted value reaches Chaincode.dispatch() [sink]"
        )

    def test_value_methods_carry_their_receivers_taint(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "m.py": (
                "import os\n"
                "import time\n"
                "from datetime import datetime as dt\n"
                "def cc(stub, record):\n"
                "    stub.put_state('t', str(time.time()).encode())\n"
                "    stub.put_state('d', dt.now().isoformat())\n"
                "    stub.put_state('r', os.urandom(8).hex())\n"
                "    stub.put_state('ok', record.to_dict())\n"
                "def emit(stub):\n"
                "    record = load(time.time())\n"
                "    stub.put_state('k', record.to_dict())\n"
            ),
        })
        # A method outside the fixed table (to_dict) does not carry it.
        assert [(f.rule_id, f.line) for f in lint_paths([pkg]).findings] == [
            ("FLOW501", 5), ("FLOW501", 6), ("FLOW502", 7),
        ]

    def test_value_methods_resolved_by_name_keep_the_receiver(self, tmp_path):
        """``hex`` and ``decode`` each name one method in this tree, so the
        unique-method fallback resolves ``os.urandom(8).hex()`` to it."""
        pkg = write_tree(tmp_path, {
            "keys.py": (
                "class PublicKey:\n"
                "    def hex(self):\n"
                "        return 'k'\n"
                "class Multihash:\n"
                "    @classmethod\n"
                "    def decode(cls, data):\n"
                "        return cls()\n"
            ),
            "chaincodes/__init__.py": "",
            "chaincodes/cc.py": shape(
                "import os", "stub.put_state('d', os.urandom(8).decode())\n"
                "return os.urandom(8).hex()"),
        })
        assert [(f.rule_id, f.line) for f in lint_paths([pkg]).findings] == [
            ("FLOW502", 7), ("FLOW502", 8),
        ]

    def test_branch_on_ambient_value_taints_what_it_guards(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "m.py": (
                "import random\n"
                "import time\n"
                "def coin(stub):\n"
                "    if random.random() > 0.5:\n"
                "        stub.put_state('coin', b'heads')\n"
                "def deadline(stub):\n"
                "    while not time.time() < 1.7e9 and stub:\n"
                "        stub.put_state('late', b'1')\n"
                "def member(stub, items):\n"
                "    if 'a' in set(items):\n"
                "        stub.put_state('has-a', b'1')\n"
            ),
        })
        # Set order is no control kind: membership does not depend on it.
        assert [(f.rule_id, f.line) for f in lint_paths([pkg]).findings] == [
            ("FLOW502", 5), ("FLOW501", 8),
        ]

    def test_str_format_float_spec_is_a_source(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "m.py": (
                "from .codec import canonical_json\n"
                "def bad(v):\n"
                "    return canonical_json('{:.2f}'.format(v))\n"
                "def ok(v):\n"
                "    return canonical_json('{} of {:d}'.format(v, 3))\n"
            ),
        })
        assert [(f.rule_id, f.line) for f in lint_paths([pkg]).findings] == [
            ("FLOW506", 3),
        ]


class TestFixedPoint:
    def test_sixteen_hop_chain_against_name_order_converges(self, tmp_path):
        """Each hop's caller sorts before its callee, so a pass in name
        order moves the taint one hop: a pass cap would give up early."""
        hops = [f"h{99 - i}" for i in range(16)]      # h99 is the source
        lines = ["import hashlib", "import time", "def h99():",
                 "    return time.time()"]
        for callee, caller in zip(hops, hops[1:]):
            lines += [f"def {caller}():", f"    return {callee}()"]
        lines += ["def a_seal():", f"    return hashlib.sha256({hops[-1]}())"]
        pkg = write_tree(tmp_path, {"chain.py": "\n".join(lines) + "\n"})
        (finding,) = lint_paths([pkg]).findings
        assert finding.rule_id == "FLOW501"
        assert finding.message == "clock value flows into sha256()"


def shape(imports: str, body: str, helpers: str = "", members: str = "") -> str:
    return (
        f"{imports}\nfrom repro.fabric.chaincode import Chaincode\n{helpers}\n\n"
        "class Shape(Chaincode):\n"
        + textwrap.indent(members, " " * 4)
        + "    def invoke(self, stub, value):\n"
        + textwrap.indent(textwrap.dedent(body).strip() + "\n", " " * 8)
    )


# The chaincode shapes the retired DET101–104/106/107 rules flagged, with
# what ``repro lint`` reports for each now.
PARITY = {
    "clock": ("import time", "return {'at': time.time()}", ["FLOW501"]),
    "clock alias": ("import time as t", "return t.time()", ["FLOW501"]),
    "from time import time": ("from time import time", "return time()", ["FLOW501"]),
    "datetime.now via alias": ("from datetime import datetime as dt",
                               "return dt.now().isoformat()", ["FLOW501"]),
    "random": ("import random", "return random.random()", ["FLOW502"]),
    "os.urandom": ("import os", "return os.urandom(8).hex()", ["FLOW502"]),
    "os.environ": ("import os", "return os.environ['HOME']", ["FLOW504"]),
    "os.getenv": ("import os", "return os.getenv('HOME')", ["FLOW504"]),
    "uuid": ("import uuid", "return str(uuid.uuid4())", ["FLOW503"]),
    "set comprehension": ("", "return [k for k in {k for k in value}]", ["FLOW505"]),
    "f-string": ("", "return f'{value:.2f}'", ["FLOW506"]),
    "printf": ("", "return '%.2f' % value", ["FLOW506"]),
    "str.format": ("", "return '{:.2f}'.format(value)", ["FLOW506"]),
    "clock into put_state": (
        "import time", "stub.put_state('at', str(time.time()).encode())", ["FLOW501"]),
    "float into put_state": (
        "", "stub.put_state('v', ('%.3f' % value).encode())", ["FLOW506"]),
    "set iteration into put_state": (
        "", "for k in set(value):\n    stub.put_state(k, b'1')", ["FLOW505"]),
    "clock helper": ("import time", "return {'at': _now()}", ["FLOW501"]),
    # Both returns depend on the test: the second runs only when it fails.
    "branch on clock": (
        "import time", "if time.time() > 1.7e9:\n    return 'late'\nreturn 'early'",
        ["FLOW501", "FLOW501"]),
    "branch on rng": (
        "import random", "if random.random() > 0.5:\n    return 'a'\nreturn 'b'",
        ["FLOW502", "FLOW502"]),
    "env config": (
        "import os", "mode = os.environ.get('CC_MODE', 'strict')\nreturn {'mode': mode}",
        ["FLOW504"]),
    # Deliberate non-findings of the flow pass: json.dumps is an API misuse
    # the local pass reports, and a clock value that reaches no endorsed
    # byte cannot diverge an endorsement.
    "json.dumps": ("import json", "return json.dumps({'a': value})", ["DET105"]),
    "unused clock": ("import time", "started = time.time()\nreturn 'ok'", []),
    # Clean inputs: the order is defined, or the value no longer depends on it.
    "sorted(set(...))": ("", "return sorted(set(value))", []),
    "len(set(...))": ("", "return len(set(value))", []),
    "membership in a set": ("", "if 'a' in set(value):\n    return 'y'\nreturn 'n'", []),
    "set into a branching helper": ("", "return self._has_a(set(value))", []),
    # More shapes the retired rules flagged: the value reaches an endorsed
    # byte through a stored comparison, a branch, a global or an in-place
    # update.
    "stored comparison": (
        "import random",
        "heads = random.random() < 0.5\nstub.put_state('coin', str(heads).encode())",
        ["FLOW502"]),
    "branch on a stored comparison": (
        "import time", "expired = time.time() > float(value)\nif expired:\n"
        "    return 'x'\nreturn 'y'", ["FLOW501", "FLOW501"]),
    "bound in a branch, written after it": (
        "import random", "if random.random() < 0.5:\n    side = 'a'\nelse:\n"
        "    side = 'b'\nstub.put_state('side', side.encode())", ["FLOW502"]),
    "bound in one branch of two": (
        "import time", "if value:\n    at = time.time()\nelse:\n    at = 0\n"
        "return {'at': at}", ["FLOW501"]),
    "module-level env read": (
        "import os\nMODE = os.environ.get('CC_MODE')", "return {'mode': MODE}",
        ["FLOW504"]),
    "class-body env read": ("import os", "return {'mode': self.MODE}", ["FLOW504"]),
    "in-place shuffle": (
        "import random", "keys = ['a', 'b']\nrandom.shuffle(keys)\n"
        "stub.put_state('k', ','.join(keys).encode())", ["FLOW502"]),
    "shuffle by an rng object": (
        "import random", "keys = list(value)\nrandom.Random().shuffle(keys)\nreturn keys",
        ["FLOW502"]),
    "appended clock": (
        "import time", "out = []\nout.append(time.time())\nreturn out", ["FLOW501"]),
    "raise on clock": (
        "import time", "if time.time() > 1.7e9:\n    raise ValueError('late')",
        ["FLOW501"]),
    "write after a clock guard": (
        "import time", "if time.time() > 1.7e9:\n    raise ValueError('late')\n"
        "stub.put_state('k', b'v')", ["FLOW501", "FLOW501"]),
    "write after a continue on clock": (
        "import time", "for k in sorted(value):\n    if time.time() > 1.7e9:\n"
        "        continue\n    stub.put_state(k, b'1')\nreturn 'ok'", ["FLOW501"]),
    "uuid read key": (
        "import uuid", "stub.get_state(str(uuid.uuid4()))\nreturn 'ok'", ["FLOW503"]),
    "uuid deleted key": ("import uuid", "stub.del_state(str(uuid.uuid4()))", ["FLOW503"]),
    "datetime field": (
        "from datetime import datetime", "now = datetime.now()\nreturn {'y': now.year}",
        ["FLOW501"]),
    "clock into a branching helper": (
        "import time", "return self._late(time.time())", ["FLOW501"]),
    "clock into a helper's guarded write": (
        "import time", "self._mark(stub, time.time())", ["FLOW501"]),
    "helper raising on clock": (
        "import time", "self._check_fresh()\nreturn 'ok'", ["FLOW501", "FLOW501"]),
}
HELPERS = {"clock helper": "def _now():\n    return time.time()\n"}
MEMBERS = {
    "class-body env read": "MODE = os.environ.get('CC_MODE')\n",
    "set into a branching helper": (
        "def _has_a(self, s):\n    if 'a' in s:\n        return 'y'\n    return 'n'\n"),
    "clock into a branching helper": (
        "def _late(self, t):\n    if t > 1.7e9:\n        return 'late'\n    return 'early'\n"),
    "clock into a helper's guarded write": (
        "def _mark(self, stub, t):\n    if t > 1.7e9:\n        stub.put_state('late', b'1')\n"),
    "helper raising on clock": (
        "def _check_fresh(self):\n    if time.time() > 1.7e9:\n"
        "        raise ValueError('late')\n"),
}


class TestParity:
    @pytest.mark.parametrize("name", list(PARITY))
    def test_shape(self, name):
        imports, body, expected = PARITY[name]
        source = shape(imports, body, HELPERS.get(name, ""), MEMBERS.get(name, ""))
        assert [f.rule_id for f in lint_source(source, "plugins/shape.py")] == expected


# ---------------------------------------------------------------------------
# Engine / repository acceptance
# ---------------------------------------------------------------------------


class TestEngine:
    def test_repo_is_flow_clean_and_fast(self):
        started = time.monotonic()
        report = lint_paths(["src/repro"])
        elapsed = time.monotonic() - started
        assert report.findings == []
        assert elapsed < 30.0  # acceptance bound; typically a few seconds
        assert report.stats["modules"] > 100
        # The flows that exist are all suppressed by one pragma at their
        # source (``util.clock.isoformat``'s fixed-width fraction).
        assert report.stats["suppressed"] > 0

    def test_findings_are_sorted_deterministically(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "codec.py": SINK,
            "z.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def z():\n"
                "    return canonical_json(time.time())\n"
            ),
            "a.py": (
                "import time\n"
                "from .codec import canonical_json\n"
                "def a():\n"
                "    return canonical_json(time.time())\n"
            ),
        })
        report = lint_paths([pkg])
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)
