"""Names, units, bounds and sizes of the end-to-end benchmark.

One place says what the benchmark measures; ``run.py``, ``worker.py``, the
README tables and ``BENCHMARK.json`` (checked against this module by
``test_e2e_smoke.py``) all read it from here.
"""

from __future__ import annotations

from dataclasses import dataclass

# Length of the timed window, in seconds on the reference box, at scale 1.0.
# ``--seconds N`` is turned into ``--scale N / RUN_SECONDS``: the window ends
# after a fixed number of operations, not at a deadline, so that two commits
# are compared on the same work at the same ledger heights.
RUN_SECONDS = 15

# The driver's budget: 4 + 22 runs per workload, all inside 3420 s.
DRIVER_CAP_S = 3420
DRIVER_RUNS_UNTRACED = 20  # per workload: two sets of ten seeds
DRIVER_RUNS_TRACED = 2     # per workload: one traced run per set

WORKLOADS = {
    "submit_small": (
        "write-only Client.submit of 4 KiB frames on a growing ledger: fabric, "
        "consensus, serialisation and index.apply_block do the work, ipfs almost none"
    ),
    "ingest_large": (
        "write-only BatchIngestor.ingest of 16 x 2 MiB: ipfs chunk+hash and payload "
        "sha256 are over 0.4 of the wall, consensus is amortised 16x; the only thread-pool user"
    ),
    "query_static": (
        "read-only query mix on a ledger that does not move: query, index lookup/proof, "
        "ipfs.cat and fabric.query only, so a write-path change predicts no change here"
    ),
    "mixed_durable": (
        "submits, retrieves and queries interleaved on a durable ledger: every write cuts "
        "a block, the query cache never hits, and WAL + checkpoints dominate the wall"
    ),
}

# Operation counts at scale 1.0, sized so the timed window takes about
# RUN_SECONDS on the reference box (2 vCPU, speed index 1.0).
SUBMIT_SMALL_SUBMITS = 800
INGEST_LARGE_ROUNDS = 17           # each on a fresh Framework, so memory is reused, not grown
INGEST_ROUND_BATCHES = 4           # 16 items of 2 MiB each
INGEST_BATCH_ITEMS = 16
INGEST_ITEM_BYTES = 2 << 20
QUERY_STATIC_PRELOAD = 1500
QUERY_STATIC_OPS = 10000
MIXED_DURABLE_PRELOAD = 256
MIXED_DURABLE_OPS = 700
WARMUP_OPS = 50

SMALL_BYTES = 4 << 10
MEDIUM_BYTES = 256 << 10
MEDIUM_SHARE = 0.10                # 90 % 4 KiB / 10 % 256 KiB

# Query shapes and their share of query ops, by count (query_static).
QUERY_SHAPES = {
    "eq_hot": 0.20,
    "eq_adhoc": 0.40,
    "point": 0.12,
    "range": 0.15,
    "verified": 0.08,
    "join": 0.025,
    "class": 0.022,
    "scan": 0.003,
}
# mixed_durable: 20 % submit, 30 % retrieve, 50 % queries with the shapes
# above minus eq_hot and scan, renormalised.
MIXED_SUBMIT_SHARE = 0.20
MIXED_RETRIEVE_SHARE = 0.30
MIXED_QUERY_SHAPES = {
    k: v for k, v in QUERY_SHAPES.items() if k not in ("eq_hot", "scan")
}


ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                    # "lower" | "higher"
    bound: float | None = None     # relative worsening that counts as a regression
    workloads: tuple[str, ...] = ALL
    # "count": repeats bit for bit for one seed; "bytes": repeats to ~1e-5
    # (wall-clock timestamps inside signed proposals render with a varying
    # number of decimals); "": a timing, compared against its bound.
    exact: str = ""


# What ``BENCHMARK.json`` lists as end_to_end: the driver's contract wants
# every such metric from every workload, so these are the ones all four
# workloads share. ``op_*`` is the latency of the workload's headline
# operation (HEADLINE_OP below).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.15),
    Metric("op_p50_ms", "ms", "lower", 0.15),
    Metric("op_p95_ms", "ms", "lower", 0.25),
    Metric("stored_bytes_per_user_byte", "B/B", "lower", 0.05, exact="bytes"),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
)

HEADLINE_OP = {
    "submit_small": "submit",
    "ingest_large": "ingest_batch",
    "query_static": "query",
    # Only this workload measures it; its p50 sits inside the one-block mode
    # and its p95 inside the checkpoint mode (one retrieve in eight crosses one).
    "mixed_durable": "retrieve",
}

# The per-operation metrics of ISSUE 11, reported by the untraced pass for
# the workloads they exist on; ``run.py`` prints and compares them, the
# driver reads them under their ``core.*`` per-layer names.
SUBMIT_WL = ("submit_small", "mixed_durable")
QUERY_WL = ("query_static", "mixed_durable")
PER_OP = (
    Metric("submit_p50_ms", "ms", "lower", 0.20, SUBMIT_WL),
    Metric("submit_p95_ms", "ms", "lower", 0.25, SUBMIT_WL),
    Metric("submit_drift_ratio", "ratio", "lower", 0.15, ("submit_small",)),
    Metric("ingest_batch_p50_ms", "ms", "lower", 0.15, ("ingest_large",)),
    Metric("ingest_batch_p95_ms", "ms", "lower", 0.25, ("ingest_large",)),
    Metric("retrieve_p50_ms", "ms", "lower", 0.15, ("mixed_durable",)),
    Metric("retrieve_p95_ms", "ms", "lower", 0.25, ("mixed_durable",)),
    Metric("query_p50_ms", "ms", "lower", 0.15, QUERY_WL),
    Metric("query_p95_ms", "ms", "lower", 0.25, QUERY_WL),
    Metric("failed_ops_ratio", "ratio", "lower", 0.0, ALL, exact="count"),
)

UNTRACED = END_TO_END + PER_OP


def untraced_for(workload: str) -> tuple[Metric, ...]:
    return tuple(m for m in UNTRACED if workload in m.workloads)


def _layer(prefix: str, *specs: tuple) -> tuple[Metric, ...]:
    out = []
    for spec in specs:
        name, unit, better = spec[:3]
        exact = spec[3] if len(spec) > 3 else ""
        out.append(Metric(f"{prefix}.{name}", unit, better, None, ALL, exact))
    return tuple(out)


_SHAPES = tuple(QUERY_SHAPES)
_SLOW_SHAPES = ("class", "scan")   # reported in ms, the rest in us

LAYERS = ("core", "trust", "ipfs", "crypto", "fabric", "fabric.query", "consensus",
          "index", "storage", "query")

PER_LAYER = (
    _layer(
        "core",
        ("submit_p50_ms", "ms", "lower"),
        ("submit_p95_ms", "ms", "lower"),
        ("submit_p50_ms.q1", "ms", "lower"),
        ("submit_p50_ms.q2", "ms", "lower"),
        ("submit_p50_ms.q3", "ms", "lower"),
        ("submit_p50_ms.q4", "ms", "lower"),
        ("submit_drift_ratio", "ratio", "lower"),
        ("submit_us_per_kblock_slope", "us/kblock", "lower"),
        ("ingest_batch_p50_ms", "ms", "lower"),
        ("ingest_batch_p95_ms", "ms", "lower"),
        ("retrieve_p50_ms", "ms", "lower"),
        ("retrieve_p95_ms", "ms", "lower"),
        ("query_p50_ms", "ms", "lower"),
        ("query_p95_ms", "ms", "lower"),
        ("blocks_per_submit", "count", "lower", "count"),
        ("blocks_per_retrieve", "count", "lower", "count"),
        ("retries_per_op", "count", "lower", "count"),
    )
    + _layer(
        "trust",
        ("self_us_per_submit", "us", "lower"),
        ("score_tx_per_submit", "count", "lower", "count"),
    )
    + _layer(
        "ipfs",
        ("add_us_per_mib", "us/MiB", "lower"),
        ("add_share", "ratio", "lower"),
        ("blocks_per_mib", "count", "lower", "count"),
        ("cat_us_per_mib", "us/MiB", "lower"),
    )
    + _layer(
        "fabric",
        ("endorse_us_per_tx", "us", "lower"),
        ("assemble_us_per_tx", "us", "lower"),
        ("order_us_per_tx", "us", "lower"),
        ("commit_us_per_block", "us", "lower"),
        ("txs_per_block", "count", "higher", "count"),
        ("ledger_bytes_per_tx", "B", "lower", "bytes"),
        ("query_us_per_call", "us", "lower"),
    )
    + _layer(
        "consensus",
        ("run_us_per_block", "us", "lower"),
        ("msgs_per_tx", "count", "lower", "count"),
        ("msgs_per_block", "count", "lower", "count"),
        ("instances_per_tx", "count", "lower", "count"),
    )
    + _layer(
        "index",
        ("apply_us_per_block", "us", "lower"),
        ("apply_us_per_block.q1", "us", "lower"),
        ("apply_us_per_block.q4", "us", "lower"),
        ("postings", "count", "lower", "count"),
        ("lookup_us_per_call", "us", "lower"),
        ("prove_us_per_call", "us", "lower"),
    )
    + _layer(
        "storage",
        ("wal_us_per_block", "us", "lower"),
        ("checkpoint_ms_per_checkpoint", "ms", "lower"),
        ("checkpoint_share", "ratio", "lower"),
        ("checkpoints", "count", "lower", "count"),
        ("wal_records", "count", "lower", "count"),
        ("wal_bytes_per_tx", "B", "lower", "bytes"),
        ("checkpoint_bytes_per_checkpoint", "B", "lower", "bytes"),
    )
    + _layer(
        "query",
        *(
            (f"{s}_p50_ms", "ms", "lower") if s in _SLOW_SHAPES
            else (f"{s}_p50_us", "us", "lower")
            for s in _SHAPES
        ),
        *((f"{s}_share", "ratio", "lower") for s in _SHAPES),
        ("fetch_verify_us_per_mib", "us/MiB", "lower"),
        ("cache_hit_ratio", "ratio", "higher", "count"),
        ("cache_evictions", "count", "lower", "count"),
        ("index_route_ratio", "ratio", "higher", "count"),
        ("rows_scanned_per_row_returned", "count", "lower", "count"),
    )
    + _layer(
        "util",
        ("canonical_json_calls_per_tx", "count", "lower", "count"),
        ("canonical_json_bytes_per_tx", "B", "lower", "bytes"),
        ("canonical_json_share", "ratio", "lower"),
    )
    + _layer(
        "crypto",
        ("sign_calls_per_tx", "count", "lower", "count"),
        ("verify_calls_per_tx", "count", "lower", "count"),
        ("merkle_calls_per_block", "count", "lower", "count"),
        ("hash_bytes_per_user_byte", "B/B", "lower", "bytes"),
        ("hash_share", "ratio", "lower"),
    )
    + _layer("share", *((layer, "ratio", "lower") for layer in LAYERS))
    + _layer(
        "bench",
        ("trace_overhead_ratio", "ratio", "lower"),
        ("span_coverage", "ratio", "higher"),
        ("speed_index_p50", "ratio", "lower"),
        ("speed_index_spread", "ratio", "lower"),
        ("raw_ops_per_s", "1/s", "higher"),
        ("generator_share", "ratio", "lower"),
    )
)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
# The driver's traced run is one pass, so it cannot see the tracing overhead.
DRIVER_PER_LAYER = tuple(m for m in PER_LAYER if m.name != "bench.trace_overhead_ratio")


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must hold (exactly these keys)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in DRIVER_PER_LAYER
        ],
    }
