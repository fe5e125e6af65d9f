"""Ablation: ordering batch size vs ingestion throughput and consensus cost.

The paper's evaluation submits one transaction at a time; production
ingestion (a camera uploading footage) batches. This bench sweeps the
orderer's ``max_batch_size`` over a fixed frame workload and reports tx/s,
blocks cut, PBFT instances, and — the amortization claim — consensus
messages per committed transaction. One PBFT instance runs per cut block,
so msgs/tx must fall roughly with the batch factor; the regression gate
asserts batch 16 spends at most half the messages per transaction of
batch 1.

Runnable standalone for CI (``python benchmarks/bench_ablation_batching.py
--quick``): executes the sweep once without pytest-benchmark and enforces
the same gates, exiting non-zero on regression.
"""

from repro.bench import emit, emit_json, format_table
from repro.core import BatchIngestor, Framework, FrameworkConfig
from repro.trust import SourceTier
from repro.workloads.traffic import IngestItem

BATCH_SIZES = (1, 4, 16, 64)
N_ITEMS = 64
QUICK_BATCH_SIZES = (1, 16)
QUICK_N_ITEMS = 16


def make_items(n_items=N_ITEMS):
    return [
        IngestItem(
            source_id="batch-cam",
            payload=bytes([i % 256]) * 4096,
            metadata={"timestamp": float(i), "detections": []},
            observation=None,
        )
        for i in range(n_items)
    ]


def _run(batch_size: int, n_items: int = N_ITEMS):
    framework = Framework(
        FrameworkConfig(consensus="bft", max_batch_size=batch_size)
    )
    ingestor = BatchIngestor(framework, record_provenance=False)
    ingestor.register(framework.register_source("batch-cam", tier=SourceTier.TRUSTED))
    orderer = framework.channel.orderer
    msgs_before = orderer.consensus_messages
    txs_before = orderer.txs_ordered
    instances_before = orderer.batches_ordered
    report = ingestor.ingest(make_items(n_items))
    assert report.committed == n_items
    msgs = orderer.consensus_messages - msgs_before
    txs = orderer.txs_ordered - txs_before
    return {
        "report": report,
        "instances": orderer.batches_ordered - instances_before,
        "msgs_per_tx": msgs / txs,
    }


def _sweep(batch_sizes=BATCH_SIZES, n_items=N_ITEMS):
    return {b: _run(b, n_items) for b in batch_sizes}


def _check_gates(results, n_items):
    largest = max(results)
    # Deterministic claims: consensus rounds amortize — one PBFT instance
    # per cut block, one block per full batch.
    assert results[largest]["instances"] == -(-n_items // largest)
    assert results[1]["report"].blocks == n_items
    # Regression gate (CI): messages per committed tx at batch 16 must be
    # at most half of batch 1 — the whole point of batching consensus.
    assert results[16]["msgs_per_tx"] <= 0.5 * results[1]["msgs_per_tx"], (
        f"consensus amortization regressed: batch-16 spends "
        f"{results[16]['msgs_per_tx']:.1f} msgs/tx vs "
        f"{results[1]['msgs_per_tx']:.1f} at batch 1"
    )


def _emit(results, n_items, name="ablation_batching"):
    rows = [
        [
            b,
            f"{r['report'].tx_per_s:.0f}",
            r["report"].blocks,
            r["instances"],
            f"{r['msgs_per_tx']:.1f}",
            f"{r['report'].elapsed_s * 1e3 / n_items:.2f}",
        ]
        for b, r in results.items()
    ]
    text = format_table(
        f"Ablation: orderer batch size ({n_items} frames, BFT n=4)",
        ["batch size", "tx/s", "blocks cut", "pbft instances", "msgs/tx", "ms per item"],
        rows,
    )
    emit(name, text)
    emit_json(
        name,
        {
            "tx_per_s": [r["report"].tx_per_s for r in results.values()],
            "msgs_per_tx": [r["msgs_per_tx"] for r in results.values()],
            "pbft_instances": [float(r["instances"]) for r in results.values()],
        },
        meta={"batch_sizes": list(results), "n_items": n_items},
        seed=0,
    )


def _profile_quick():
    """Run the quick sweep under the cost-center profiler and emit the
    ``prof_batching_quick`` envelope the CI prof-gate diffs.

    ``<center>_calls`` series are seed-deterministic (the workload is
    fixed), so they gate EXACT; ``<center>_excl_s`` series gate at the
    wall-time tolerance. The profiler fingerprint (call counts only)
    rides in ``meta`` so two runs of this gate are comparable at a
    glance.
    """
    from repro import obs

    registry = obs.MetricsRegistry()
    obs.set_registry(registry)
    profiler = obs.enable_profiler()
    obs.enable(registry=registry)
    try:
        results = _sweep(QUICK_BATCH_SIZES, QUICK_N_ITEMS)
        _check_gates(results, QUICK_N_ITEMS)
        report = profiler.report()
        assert report.centers, "profiled sweep recorded no cost centers"
        emit_json(
            "prof_batching_quick",
            report.series(),
            meta={
                "batch_sizes": list(QUICK_BATCH_SIZES),
                "n_items": QUICK_N_ITEMS,
                "fingerprint": report.fingerprint,
            },
            seed=0,
        )
        print(f"profile fingerprint: {report.fingerprint}")
        print(f"cost centers       : {len(report.centers)} (node, center) rows")
    finally:
        obs.disable()
        obs.disable_profiler()


def test_ablation_batch_size(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _emit(results, N_ITEMS)
    _check_gates(results, N_ITEMS)
    # Timing claim with noise headroom: batching never degrades throughput.
    assert results[16]["report"].tx_per_s > 0.9 * results[1]["report"].tx_per_s


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep (batch 1 vs 16 over 16 items) for the CI gate",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the quick sweep under the cost-center profiler and emit "
             "the prof_batching_quick envelope (CI prof-gate)",
    )
    args = parser.parse_args(argv)
    if args.profile:
        _profile_quick()
        return
    if args.quick:
        batch_sizes, n_items = QUICK_BATCH_SIZES, QUICK_N_ITEMS
    else:
        batch_sizes, n_items = BATCH_SIZES, N_ITEMS
    results = _sweep(batch_sizes, n_items)
    _emit(results, n_items, name="ablation_batching_quick" if args.quick else "ablation_batching")
    _check_gates(results, n_items)
    print(
        f"gate OK: msgs/tx {results[16]['msgs_per_tx']:.1f} (batch 16) "
        f"<= 0.5 x {results[1]['msgs_per_tx']:.1f} (batch 1)"
    )


if __name__ == "__main__":
    main()
