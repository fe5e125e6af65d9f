"""Determinism self-test of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier-1: the
repository's ``testpaths`` stay as they are). Every workload runs at
``--scale 0.02`` in fresh processes, exactly as ``run.py`` runs it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spec  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def passes(request):
    """Two same-seed passes (untraced + traced) and one pass on another seed."""
    workload = request.param
    first = run.run_workload(workload, 7, SCALE, traced=True)
    again = run.run_workload(workload, 7, SCALE, traced=True)
    other = run.run_workload(workload, 8, SCALE, traced=False)
    return workload, first, again, other


def test_benchmark_json_matches_spec_and_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(UNIT.match(e["unit"]) for key in ("end_to_end", "per_layer") for e in doc[key])
    assert all(0 <= e["bound"] <= 0.25 for e in doc["end_to_end"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])


def test_every_named_metric_is_emitted_with_a_unit(passes):
    workload, first, _, _ = passes
    wanted = {m.name: m.unit for m in spec.untraced_for(workload)}
    assert {m.name for m in spec.END_TO_END} <= set(wanted)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == wanted
    assert {k: v["unit"] for k, v in first["per_layer"].items()} == {
        m.name: m.unit for m in spec.PER_LAYER
    }
    values = [v["value"] for v in first["metrics"].values()]
    values += [v["value"] for v in first["per_layer"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    assert all(first["metrics"][m.name]["value"] > 0 for m in spec.END_TO_END)


def test_no_operation_fails(passes):
    _, first, again, other = passes
    for result in (first, again, other):
        assert run.failed(result) == 0, result["failures"]
        assert result["metrics"]["failed_ops_ratio"]["value"] == 0


def test_exact_metrics_repeat_for_a_seed_and_move_with_it(passes):
    _, first, again, other = passes
    assert first["schedule_sha256"] == again["schedule_sha256"]
    assert first["schedule_sha256"] != other["schedule_sha256"]
    assert first["samples"] == again["samples"] == other["samples"]
    for metric in spec.UNTRACED + spec.PER_LAYER:
        section = "per_layer" if metric in spec.PER_LAYER else "metrics"
        if metric.name not in first[section] or not metric.exact:
            continue
        a, b = first[section][metric.name]["value"], again[section][metric.name]["value"]
        if metric.exact == "count":
            assert a == b, metric.name
        else:
            assert a == pytest.approx(b, rel=run.BYTES_TOLERANCE), metric.name
    assert first["counter_deltas"] == again["counter_deltas"]


def test_traced_counts_equal_the_programs_own_accessors(passes):
    _, first, _, _ = passes
    traced = first["traced_pass"]
    spans, deltas = traced["span_counts"], traced["counter_deltas"]
    n_peers = 2
    assert spans.get("Peer.commit_block", 0) == deltas["blocks"] * n_peers
    assert spans.get("index.apply_block", 0) == deltas["blocks"] * n_peers
    assert spans.get("orderer.submit", 0) == deltas["txs_ordered"]
    assert spans.get("consensus.submit", 0) == deltas["batches_ordered"]
    assert spans.get("storage.checkpoint_peer", 0) == deltas["checkpoints"]
    assert spans.get("storage.record_commit", 0) == deltas["wal_records"]
    assert (
        spans.get("QueryEngine.run", 0) + spans.get("QueryEngine.run_verified", 0)
        == deltas["query.queries"]
    )
    # The untraced pass saw the same program do the same work.
    assert first["counter_deltas"] == deltas


def test_untraced_pass_allocates_no_span(passes):
    _, first, _, _ = passes
    assert first["spans"] == 0 and first["span_counts"] == {}
    assert first["traced_pass"]["spans"] > 0


def test_wrappers_are_removed():
    import repro.core.ingest as ingest_module
    from repro.core import BatchIngestor, Client, Framework
    from repro.util.parallel import parallel_map

    import tracing

    framework = Framework()
    client = Client(framework, framework.register_source("probe"))
    ingestor = BatchIngestor(framework)
    recorder = tracing.Recorder()
    tracing.install(recorder, framework, [client], ingestor)
    assert recorder.installed > 20
    assert "endorse" in vars(framework.channel) and "submit" in vars(client)
    assert ingest_module.parallel_map is not parallel_map
    recorder.remove()
    assert recorder.installed == 0
    assert ingest_module.parallel_map is parallel_map
    touched = [framework, framework.channel, framework.channel.orderer, framework.ipfs,
               framework.trust, client, client.engine, ingestor,
               *framework.channel.peers.values()]
    for obj in touched:
        assert not any(callable(v) and getattr(v, "__name__", "") == "traced"
                       for v in vars(obj).values()), obj


def test_compare_reports_same_for_identical_sides(tmp_path, passes, capsys):
    workload, first, again, _ = passes
    for name, result in (("a.json", first), ("b.json", again)):
        (tmp_path / name).write_text(json.dumps({"runs": [{workload: result}]}))
    run.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "a.json")])
    table = capsys.readouterr().out
    assert "0 row(s) worse or unresolved" in table
    for metric in spec.untraced_for(workload):
        assert metric.name in table
    run.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith(workload)]
    exact = [l for l in rows if " exact " in l]
    assert exact and all(l.endswith("same") for l in exact)
