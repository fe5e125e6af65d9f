"""Command-line interface: ``python -m repro <command>``.

Session-scoped demos of the framework (the substrate is in-process, so
every invocation stands up a fresh network — there is no daemon):

* ``demo``                 — one item through the full store/retrieve path
* ``ingest``               — batch-ingest synthetic traffic videos, print throughput
* ``figure {2,3,4,5,6}``   — regenerate one of the paper's evaluation figures
* ``query "<text>"``       — run a query against a freshly populated demo set
* ``chaos``                — run a seeded fault-injection scenario (``chaos list`` to
  enumerate); ``--alerts`` gates the alert lifecycle, ``--sanitize`` the runtime sanitizers
* ``lint``                 — run the static analyzer: hygiene and chaincode rules
* ``metrics``              — run a traced demo, print the metrics (Prometheus/JSON)
* ``prof``                 — run a chaos scenario (or the traced demo) and explain it:
  cost centers, the Fig. 5/6 stage breakdown, ``--tx``'s critical path, ``--out`` trace
* ``bench-diff``           — gate fresh BENCH results against the checked-in baseline
* ``explorer``             — browse the ledger: blocks, txs, provenance, trust, audit
* ``health``               — component health + SLIs for a live deployment
* ``info``                 — version and default configuration
"""

from __future__ import annotations

import argparse
import json
import sys

import repro


def _build_parser() -> argparse.ArgumentParser:
    from repro.analysis.runtime import MODES as sanitizer_modes

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Blockchain-enabled storage/retrieval framework (IPPS 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="store + retrieve one item end to end")

    ingest = sub.add_parser("ingest", help="batch-ingest synthetic traffic videos")
    ingest.add_argument("--videos", type=int, default=3)
    ingest.add_argument("--frames", type=int, default=3)
    ingest.add_argument("--batch", type=int, default=16)
    ingest.add_argument("--consensus", choices=["solo", "bft"], default="bft")

    figure = sub.add_parser("figure", help="regenerate a paper figure's series")
    figure.add_argument("number", type=int, choices=[2, 3, 4, 5, 6])

    query = sub.add_parser("query", help="run a query over a demo dataset")
    query.add_argument("text", help="query text, e.g. \"vehicle_class = 'truck'\"")
    query.add_argument("--videos", type=int, default=3)
    query.add_argument("--fetch", action="store_true", help="also fetch raw bytes from IPFS")
    query.add_argument(
        "--verify",
        action="store_true",
        help="attach Merkle membership proofs and verify the answer against "
        "the index epoch root (needs an index-routable predicate)",
    )

    export = sub.add_parser("export", help="export a demo dataset slice as a signed bundle")
    export.add_argument("out", help="output file for the bundle")
    export.add_argument("--query", default="", help="query selecting what to export")
    export.add_argument("--videos", type=int, default=2)

    inspect = sub.add_parser("inspect-bundle", help="verify and summarize a bundle file")
    inspect.add_argument("path", help="bundle file to inspect")

    metrics = sub.add_parser(
        "metrics", help="run a traced store+retrieve demo and print its metrics"
    )
    metrics.add_argument("--items", type=int, default=3, help="items to store+retrieve")
    metrics.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
        help="exposition format (default: prometheus text)",
    )

    prof = sub.add_parser(
        "prof",
        help="run a workload under the cost-center profiler and print the profile",
    )
    prof.add_argument("target", nargs="?", default="standard",
                      help="chaos scenario name (see `repro chaos list`), or 'demo' "
                           "for the traced store+retrieve demo (default: standard)")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--cycles", type=int, default=None,
                      help="override the scenario's cycle count")
    prof.add_argument("--items", type=int, default=3,
                      help="items for the 'demo' target (default 3)")
    prof.add_argument("--top", type=int, default=20,
                      help="cost-center rows to print (default 20)")
    prof.add_argument("--json", action="store_true", dest="as_json",
                      help="print the profile (centers/coverage) as JSON")
    prof.add_argument("--tx", default=None, metavar="ID",
                      help="also print this committed tx's cross-node critical path "
                           "(tx id prefix, or 'latest'); limits --out to its trace")
    prof.add_argument("--out", default=None, metavar="FILE",
                      help="write the run's Chrome trace_event JSON (one process row "
                           "per node)")
    prof.add_argument("--min-coverage", type=float, default=None, metavar="FRAC",
                      help="fail (exit 1) unless cost centers explain at least FRAC "
                           "of fabric.invoke wall time")

    bench_diff = sub.add_parser(
        "bench-diff",
        help="compare fresh BENCH_*.json results against the checked-in baseline",
    )
    bench_diff.add_argument("--baseline", default="benchmarks/results",
                            help="baseline directory (default: benchmarks/results)")
    bench_diff.add_argument("--current", default=None,
                            help="directory with the fresh run "
                                 "(default: $REPRO_BENCH_DIR)")
    bench_diff.add_argument("--bench", action="append", default=None, metavar="NAME",
                            help="bench name(s) to compare (default: all in current dir)")
    bench_diff.add_argument("--tolerance", type=float, default=0.1,
                            help="relative tolerance for deterministic metrics (default 0.1)")
    bench_diff.add_argument("--timing-tolerance", type=float, default=None,
                            help="relative tolerance for wall-time metrics "
                                 "(default: report-only, no gating)")
    bench_diff.add_argument("--json", action="store_true", dest="as_json")

    chaos = sub.add_parser(
        "chaos", help="run a seeded fault-injection scenario against a live deployment"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser("run", help="run one scenario and print its report")
    chaos_run.add_argument("scenario", help="scenario name (see `repro chaos list`)")
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.add_argument("--cycles", type=int, default=None,
                           help="override the scenario's cycle count")
    chaos_run.add_argument("--metrics", action="store_true",
                           help="also print resilience/chaos metrics after the run")
    chaos_run.add_argument("--json", action="store_true", dest="as_json",
                           help="print the summary as JSON (for CI)")
    chaos_run.add_argument("--alerts", action="store_true",
                           help="evaluate the standard alert rules every cycle and "
                                "verify the expected fire→resolve lifecycle (CI health gate)")
    chaos_run.add_argument("--sanitize", default="", metavar="MODES",
                           help="enable runtime sanitizers for the run: 'all' or a comma "
                                f"list of {','.join(sanitizer_modes)}")
    chaos_sub.add_parser("list", help="list available scenarios")

    lint = sub.add_parser(
        "lint", help="run reprolint (hygiene rules HYG2xx, chaincode rules "
                     "DET103/DET105) over source paths"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--baseline", default=".reprolint-baseline.json",
                      help="accepted-findings baseline file (missing = empty)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="accept all current findings into the baseline and exit 0")

    explorer = sub.add_parser(
        "explorer", help="browse a demo ledger: blocks, txs, provenance, trust, audit"
    )
    explorer.add_argument(
        "what", nargs="?", default="summary",
        choices=["summary", "blocks", "block", "tx", "provenance", "trust", "audit"],
    )
    explorer.add_argument("arg", nargs="?", default=None,
                          help="block number / tx id / entry id, where applicable")
    explorer.add_argument("--videos", type=int, default=2)
    explorer.add_argument("--json", action="store_true", dest="as_json")

    health = sub.add_parser(
        "health", help="component health + rolling SLIs for a live deployment"
    )
    health.add_argument("--items", type=int, default=3, help="items to store first")
    health.add_argument("--json", action="store_true", dest="as_json")

    sub.add_parser("info", help="version and defaults")
    return parser


def _cmd_demo() -> int:
    from repro.core import Client, Framework, FrameworkConfig
    from repro.trust import SourceTier

    framework = Framework(FrameworkConfig())
    client = Client(framework, framework.register_source("cli-cam", tier=SourceTier.TRUSTED))
    receipt = client.submit(
        b"cli demo payload" * 64,
        {"timestamp": 1.0, "camera_id": "cli-cam",
         "detections": [{"vehicle_class": "car", "confidence": 0.9}]},
    )
    print(f"stored  : entry {receipt.entry_id[:16]}… cid {receipt.cid[:24]}… "
          f"block {receipt.block_number} ({receipt.validation_code.value})")
    result = client.retrieve(receipt.entry_id)
    print(f"fetched : {len(result.data)} bytes, integrity verified: {result.verified}")
    lineage = client.provenance(receipt.entry_id)
    print(f"lineage : {' -> '.join(e['action'] for e in lineage)}")
    return 0


def _cmd_ingest(args) -> int:
    from repro.core import BatchIngestor, Framework, FrameworkConfig
    from repro.trust import SourceTier
    from repro.workloads.traffic import ingest_stream

    framework = Framework(
        FrameworkConfig(consensus=args.consensus, max_batch_size=args.batch)
    )
    ingestor = BatchIngestor(framework)
    items = list(ingest_stream(n_videos=args.videos, frames_per_video=args.frames))
    for source in sorted({i.source_id for i in items}):
        ingestor.register(framework.register_source(source, tier=SourceTier.TRUSTED))
    report = ingestor.ingest(items)
    print(f"sources   : {args.videos} cameras, {len(items)} frames")
    print(f"committed : {report.committed}/{report.submitted} "
          f"in {report.blocks} blocks ({args.consensus} ordering)")
    print(f"throughput: {report.tx_per_s:.1f} tx/s, {report.mib_per_s:.1f} MiB/s")
    return 0


def _cmd_figure(number: int) -> int:
    from repro.bench import (
        fig2_sample_record,
        fig3_confidence,
        fig4_extraction_scatter,
        fig5_storage_times,
        fig6_retrieval_times,
        format_table,
        human_size,
    )

    if number == 2:
        print(json.dumps(fig2_sample_record(), indent=2, sort_keys=True))
    elif number == 3:
        series = fig3_confidence()
        rows = [[s.kind, len(s.confidences), f"{s.mean:.3f}", f"{s.std:.3f}"]
                for s in series.values()]
        print(format_table("Figure 3: confidence, static vs drone",
                           ["source", "n", "mean", "std"], rows))
    elif number == 4:
        points = fig4_extraction_scatter(n_frames=30)
        rows = [[size, f"{t * 1e3:.4f}"] for size, t in points[:15]]
        print(format_table("Figure 4: extraction time (first 15 records)",
                           ["record bytes", "ms"], rows))
    elif number in (5, 6):
        fn = fig5_storage_times if number == 5 else fig6_retrieval_times
        timings = fn(sizes=(1 << 10, 64 << 10, 1 << 20), repeats=2)
        verb = "storage" if number == 5 else "retrieval"
        rows = [[human_size(t.size), f"{t.ipfs_only_s * 1e3:.3f}",
                 f"{t.with_blockchain_s * 1e3:.3f}", f"{t.overhead_s * 1e3:.3f}"]
                for t in timings]
        print(format_table(f"Figure {number}: {verb} time (ms)",
                           ["size", "IPFS only", "with blockchain", "overhead"], rows))
    return 0


def _cmd_query(args) -> int:
    from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
    from repro.errors import MerkleProofError, QueryError
    from repro.query import parse_query
    from repro.trust import SourceTier
    from repro.workloads.traffic import ingest_stream

    framework = Framework(FrameworkConfig(consensus="solo", max_batch_size=16))
    ingestor = BatchIngestor(framework)
    items = list(ingest_stream(n_videos=args.videos, frames_per_video=2))
    identity = None
    for source in sorted({i.source_id for i in items}):
        identity = framework.register_source(source, tier=SourceTier.TRUSTED)
        ingestor.register(identity)
    ingestor.ingest(items)
    client = Client(framework, identity)
    print(f"dataset: {len(items)} frames from {args.videos} cameras")
    try:
        projected = parse_query(args.text).select is not None
        print(f"plan   : {client.engine.plan(args.text).explain()}")
        rows = client.query(args.text, fetch_data=args.fetch)
    except QueryError as exc:
        print(f"repro query: {exc}", file=sys.stderr)
        return 2
    print(f"matched: {len(rows)} records")
    for row in rows[:10]:
        extra = f", {len(row.data)} raw bytes" if row.data is not None else ""
        if projected:
            # A SELECT row holds its fields (and entry_id / cid when the
            # record has them), not the whole record: print what it holds.
            print(f"  {json.dumps(row.record, sort_keys=True, default=str)}{extra}")
            continue
        meta = row.record["metadata"]
        print(f"  {row.entry_id[:12]}…  {meta.get('camera_id', '?'):<10} "
              f"t={meta.get('timestamp', 0):>10.1f}  "
              f"detections={len(meta.get('detections', []))}{extra}")
    if args.verify:
        try:
            answer = client.engine.run_verified(args.text)
            checked = answer.verify()
        except (QueryError, MerkleProofError) as exc:
            print(f"verify : FAIL — {exc}")
            return 1
        print(
            f"verify : OK — {checked} record(s) verified by "
            f"{len(answer.proofs)} proof(s) against epoch root "
            f"{answer.root[:16]}… at height {answer.height}"
        )
    return 0


def _demo_client(videos: int):
    from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
    from repro.trust import SourceTier
    from repro.workloads.traffic import ingest_stream

    framework = Framework(FrameworkConfig(consensus="solo", max_batch_size=16))
    ingestor = BatchIngestor(framework)
    items = list(ingest_stream(n_videos=videos, frames_per_video=2))
    identity = None
    for source in sorted({i.source_id for i in items}):
        identity = framework.register_source(source, tier=SourceTier.TRUSTED)
        ingestor.register(identity)
    ingestor.ingest(items)
    return Client(framework, identity), len(items)


def _cmd_export(args) -> int:
    from repro.core.archive import export_bundle

    client, n_items = _demo_client(args.videos)
    raw = export_bundle(client, args.query)
    with open(args.out, "wb") as fh:
        fh.write(raw)
    print(f"dataset : {n_items} frames ingested")
    print(f"exported: {args.out} ({len(raw)} bytes), query {args.query!r}")
    return 0


def _cmd_inspect_bundle(path: str) -> int:
    from repro.core.archive import import_bundle

    with open(path, "rb") as fh:
        raw = fh.read()
    bundle, store = import_bundle(raw)
    print(f"bundle  : {len(bundle.entries)} entries from channel {bundle.channel!r}")
    print(f"exporter: {bundle.exporter['name']}@{bundle.exporter['org']} (signature OK)")
    print(f"query   : {bundle.query_text!r}")
    print(f"blocks  : {len(store)} content-addressed blocks, all hash-verified")
    for entry in bundle.entries[:5]:
        meta = entry.record["metadata"]
        print(f"  {entry.entry_id[:12]}…  {meta.get('camera_id', '?'):<10} "
              f"t={meta.get('timestamp', 0):>10.1f}  provenance={len(entry.provenance)} events")
    return 0


def _traced_demo(n_items: int, registry) -> None:
    """Store + retrieve ``n_items`` under the installed tracer, reporting
    the channel and validator metrics to ``registry``."""
    from repro.core import Client, Framework, FrameworkConfig
    from repro.fabric.monitor import ChannelMonitor
    from repro.trust import SourceTier

    framework = Framework(FrameworkConfig())
    ChannelMonitor(framework.channel, registry)
    framework.validator_pool.registry = registry
    client = Client(
        framework, framework.register_source("obs-cam", tier=SourceTier.TRUSTED)
    )
    for i in range(n_items):
        receipt = client.submit(
            b"observability demo payload %d " % i * 32,
            {"timestamp": float(i), "camera_id": "obs-cam",
             "detections": [{"vehicle_class": "car", "confidence": 0.9}]},
        )
        client.retrieve(receipt.entry_id)


def _cmd_metrics(args) -> int:
    from repro import obs

    registry = obs.MetricsRegistry()
    obs.enable(registry=registry)
    try:
        _traced_demo(args.items, registry)
        if args.format == "json":
            print(obs.metrics_json(registry, indent=2))
        else:
            print(obs.render_prometheus(registry), end="")
    finally:
        obs.disable()
    return 0


def _cmd_prof(args) -> int:
    """Exit codes: 0 ok, 1 coverage below ``--min-coverage``, 2 unknown
    scenario or tx."""
    from repro import obs
    from repro.chaos import get_scenario
    from repro.errors import ObservabilityError, ReproError
    from repro.obs.critpath import critical_path

    registry = obs.MetricsRegistry()
    obs.set_registry(registry)
    profiler = obs.enable_profiler()
    tracer = obs.enable(registry=registry)
    try:
        if args.target == "demo":
            _traced_demo(args.items, registry)
        else:
            try:
                scenario = get_scenario(args.target, seed=args.seed, n_cycles=args.cycles)
            except ReproError as exc:
                print(f"repro prof: {exc}", file=sys.stderr)
                return 2
            scenario.run()
        crit = None
        if args.tx is not None:
            try:
                crit = critical_path(tracer, args.tx)
            except ObservabilityError as exc:
                print(f"repro prof: {exc}", file=sys.stderr)
                return 2
        report = profiler.report()
        coverage = obs.invoke_coverage(tracer)
        if args.as_json:
            doc = report.to_dict()
            doc["invoke_coverage"] = coverage
            if crit is not None:
                doc["critical_path"] = crit.to_dict()
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for line in report.render_lines(args.top):
                print(line)
            print()
            print(obs.render_breakdown(obs.pipeline_breakdown(tracer)))
            if crit is not None:
                print()
                for line in crit.render_lines():
                    print(line)
            print()
            print(f"fabric.invoke coverage: {coverage * 100:.1f}% of wall time "
                  f"attributed to cost centers")
            print(f"fingerprint           : {report.fingerprint}")
        if args.out:
            trace_id = crit.trace_id if crit is not None else None
            obs.write_chrome_trace(args.out, tracer, trace_id=trace_id)
            print(f"chrome trace          : {args.out} (one process row per node)")
        if args.min_coverage is not None and coverage < args.min_coverage:
            print(
                f"repro prof: coverage {coverage:.3f} below required "
                f"{args.min_coverage:.3f}",
                file=sys.stderr,
            )
            return 1
    finally:
        obs.disable()
        obs.disable_profiler()
    return 0


def _cmd_bench_diff(args) -> int:
    import os

    from repro.errors import ObservabilityError
    from repro.obs.benchtrend import compare_dirs

    current = args.current or os.environ.get("REPRO_BENCH_DIR")
    if not current:
        print("repro bench-diff: no current directory "
              "(pass --current or set REPRO_BENCH_DIR)", file=sys.stderr)
        return 2
    try:
        report = compare_dirs(
            args.baseline, current,
            names=args.bench,
            tolerance=args.tolerance,
            timing_tolerance=args.timing_tolerance,
        )
    except ObservabilityError as exc:
        print(f"repro bench-diff: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.render_lines():
            print(line)
    return 0 if report.ok else 1


def _cmd_chaos(args) -> int:
    from repro.chaos import SCENARIOS, get_scenario
    from repro.obs.alerts import ChaosAlertProbe
    from repro.obs.metrics import MetricsRegistry, set_registry

    if args.chaos_command == "list":
        for name, factory in sorted(SCENARIOS.items()):
            doc = (factory.__doc__ or "").strip().splitlines()[0] if factory.__doc__ else ""
            print(f"{name:<12} {doc}")
        return 0

    registry = MetricsRegistry()
    set_registry(registry)
    scenario = get_scenario(args.scenario, seed=args.seed, n_cycles=args.cycles)
    if args.sanitize:
        import dataclasses

        from repro.analysis.runtime import parse_modes
        from repro.errors import AnalysisError

        try:
            parse_modes(args.sanitize)  # fail fast on a bad spec
        except AnalysisError as exc:
            print(f"repro chaos: {exc}", file=sys.stderr)
            return 2
        scenario.config = dataclasses.replace(scenario.config, sanitize=args.sanitize)
    probe = None
    if args.alerts:
        probe = ChaosAlertProbe(registry=registry)
        scenario.on_cycle = probe
    report = scenario.run()
    summary = report.summary()
    sanitize_ok = True
    if report.sanitizer is not None:
        san_report = report.sanitizer.finalize()
        sanitize_ok = san_report.ok
        summary["sanitizers"] = san_report.to_dict()
    alerts_ok = True
    if probe is not None:
        alerts_ok, problems = probe.verify(args.scenario)
        summary["alerts"] = {
            "ok": alerts_ok,
            "fingerprint": probe.engine.fingerprint() if probe.engine else None,
            "log": [e.to_dict() for e in probe.engine.log] if probe.engine else [],
            "problems": problems,
        }
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"scenario   : {summary['scenario']} (seed {summary['seed']})")
        print(f"cycles     : {summary['submitted_ok']}/{summary['cycles']} submitted, "
              f"{summary['degraded_cycles']} degraded")
        print(f"faults     : {summary['faults_injected']} injected")
        print(f"data loss  : {summary['data_loss']} "
              f"({'ZERO — all stored entries survived' if summary['data_loss'] == 0 else 'entries lost'})")
        print(f"fingerprint: {summary['fingerprint']}")
        if not summary["submitted_ok"]:
            print("stored     : nothing — no cycle stored an entry (FAIL)")
        failed = [c for c in report.cycles
                  if c.submit_error or c.retrieve_error or c.repair_error]
        for c in failed[:20]:
            errs = "/".join(filter(None, (c.submit_error, c.retrieve_error, c.repair_error)))
            faults = f"  [{', '.join(c.faults)}]" if c.faults else ""
            print(f"  cycle {c.cycle:>3}: {errs}{faults}")
        if probe is not None and probe.engine is not None:
            print("alert log  :")
            for line in probe.engine.render_lines():
                print(f"  {line}")
            print(f"alert check: {'PASS' if alerts_ok else 'FAIL'}")
            for problem in summary["alerts"]["problems"]:
                print(f"  !! {problem}")
        if "sanitizers" in summary:
            print(f"sanitizers : {'PASS' if sanitize_ok else 'FAIL'} "
                  f"({', '.join(summary['sanitizers']['modes'])})")
            for f in summary["sanitizers"]["findings"]:
                print(f"  !! {f['rule_id']} {f['path']}:{f['line']}: {f['message']}")
    if args.metrics:
        from repro.obs import render_prometheus

        print()
        print(render_prometheus(registry), end="")
    stored = summary["submitted_ok"] > 0  # a run that stored nothing lost nothing
    return 0 if stored and report.data_loss == 0 and alerts_ok and sanitize_ok else 1


def _cmd_lint(args) -> int:
    """Exit codes are pre-commit-friendly: 0 clean (or fully baselined),
    1 new findings, 2 usage error (bad path / baseline / pragma rule id)."""
    from repro.analysis.baseline import diff_baseline, load_baseline, write_baseline
    from repro.analysis.linter import lint_paths
    from repro.errors import AnalysisError

    try:
        report = lint_paths(args.paths)
        accepted = load_baseline(args.baseline)
    except AnalysisError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    findings, stats = report.findings, report.stats
    if args.update_baseline:
        write_baseline(args.baseline, findings)
        print(f"baseline updated: {len(findings)} finding(s) -> {args.baseline}")
        return 0
    new = diff_baseline(findings, accepted)
    baselined = len(findings) - len(new)
    if args.format == "json":
        print(json.dumps(
            {
                "paths": list(args.paths),
                "findings": [f.to_dict() for f in new],
                "baselined": baselined,
                "stats": stats,
                "ok": not new,
            },
            indent=2, sort_keys=True,
        ))
    else:
        for finding in new:
            print(finding.render())
        print(
            f"reprolint: {len(new)} new finding(s), {baselined} baselined "
            f"({stats['modules']} modules)"
        )
    return 1 if new else 0


def _block_number(text: str) -> int:
    from repro.errors import ReproError

    try:
        return int(text)
    except ValueError:
        raise ReproError(f"block number must be an integer, got {text!r}") from None


def _cmd_explorer(args) -> int:
    """Exit codes: 0 ok, 1 audit failed, 2 bad block number or unknown
    block / tx."""
    from repro.errors import ReproError
    from repro.obs.explorer import LedgerExplorer

    client, n_items = _demo_client(args.videos)
    framework = client.framework
    explorer = LedgerExplorer(framework.channel, ipfs=framework.ipfs)

    def emit(payload) -> None:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))

    if args.what == "summary":
        summary = explorer.summary()
        if args.as_json:
            emit(summary)
            return 0
        print(f"channel   : {summary['channel']} (height {summary['height']})")
        print(f"orgs      : {', '.join(summary['orgs'])}")
        print(f"chaincodes: {', '.join(summary['chaincodes'])}")
        print(f"txs       : {summary['tx_by_code']}")
        for name, peer in summary["peers"].items():
            print(f"  {name:<14} height={peer['height']:<4} "
                  f"state_keys={peer['state_keys']:<5} online={peer['online']}")
        return 0
    if args.what == "blocks":
        blocks = explorer.blocks()
        if args.as_json:
            emit(blocks)
            return 0
        for b in blocks:
            txs = ", ".join(f"{t['chaincode']}.{t['fn']}({t['code']})"
                            for t in b["transactions"])
            print(f"block {b['number']:>3}  {b['hash'][:16]}…  {b['tx_count']} txs: {txs}")
        return 0
    if args.what == "tx" and not args.arg:
        print("usage: repro explorer tx <tx_id>", file=sys.stderr)
        return 2
    if args.what in ("block", "tx"):
        try:
            if args.what == "block":
                view = explorer.block_view(_block_number(args.arg or "0"))
            else:
                view = explorer.tx_view(args.arg)
        except ReproError as exc:
            print(f"repro explorer: {exc}", file=sys.stderr)
            return 2
        emit(view)
        return 0
    if args.what == "provenance":
        entry_ids = [args.arg] if args.arg else explorer.entry_ids()
        for entry_id in entry_ids:
            trail = explorer.provenance_trail(entry_id)
            if args.as_json:
                emit({"entry_id": entry_id, "trail": trail})
                continue
            chain = " -> ".join(f"{e['action']}@{e['actor']}" for e in trail)
            print(f"{entry_id[:16]}…  {chain}")
        return 0
    if args.what == "trust":
        # The demo ingest scores sources engine-side only; snapshot the
        # scores on-chain so there is a timeline to chart. The snapshots are
        # rider writes: nothing else is queued, so flush orders them.
        for source_id in framework.trust.sources():
            framework.record_trust_on_chain(source_id)
        framework.channel.flush()
        for source_id in explorer.trust_sources():
            timeline = explorer.trust_timeline(source_id)
            if args.as_json:
                emit({"source_id": source_id, "timeline": timeline})
                continue
            scores = " -> ".join(f"{t['score']:.3f}" for t in timeline)
            print(f"{source_id:<12} {len(timeline)} updates: {scores}")
        return 0
    # audit
    report = explorer.audit_chain()
    if args.as_json:
        emit(report.to_dict())
    else:
        print(f"dataset: {n_items} frames ingested")
        for line in report.render_lines():
            print(line)
    return 0 if report.ok else 1


def _cmd_health(args) -> int:
    from repro.core import Client, Framework, FrameworkConfig
    from repro.crypto.cid import CID
    from repro.ipfs.replication import ReplicationManager
    from repro.obs.health import HealthMonitor
    from repro.obs.metrics import MetricsRegistry
    from repro.trust import SourceTier

    framework = Framework(
        FrameworkConfig(consensus="bft", peers_per_org=2, n_ipfs_nodes=3)
    )
    client = Client(
        framework, framework.register_source("health-cam", tier=SourceTier.TRUSTED)
    )
    manager = ReplicationManager(framework.ipfs, replication_factor=2)
    for i in range(args.items):
        receipt = client.submit(
            b"health probe payload %d " % i * 32,
            {"timestamp": float(i), "camera_id": "health-cam", "detections": []},
        )
        manager.replicate(CID.parse(receipt.cid))
    monitor = HealthMonitor(
        framework, registry=MetricsRegistry(), replication=manager
    )
    report = monitor.check()
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"deployment: bft, 2 orgs x 2 peers, 3 ipfs nodes, "
              f"{args.items} items stored")
        for line in report.render_lines():
            print(line)
    return 0 if report.healthy else 1


def _cmd_info() -> int:
    from repro.core import FrameworkConfig

    config = FrameworkConfig()
    print(f"repro {repro.__version__}")
    print(f"default deployment: orgs={list(config.orgs)}, consensus={config.consensus}, "
          f"validators={config.n_validators}, ipfs nodes={config.n_ipfs_nodes}, "
          f"chunk={config.chunk_size // 1024} KiB")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "figure":
        return _cmd_figure(args.number)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "inspect-bundle":
        return _cmd_inspect_bundle(args.path)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "prof":
        return _cmd_prof(args)
    if args.command == "bench-diff":
        return _cmd_bench_diff(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "explorer":
        return _cmd_explorer(args)
    if args.command == "health":
        return _cmd_health(args)
    if args.command == "info":
        return _cmd_info()
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
