"""Turn one finished :class:`workloads.Run` into named metrics.

``end_to_end`` reads only the untimed bookkeeping of the closed loop
(latencies, kernel samples, byte counts); ``per_layer`` additionally reads
the spans, the program's counter deltas and the profiler's call counts of a
traced run. Every time is divided by the speed index of the moment it was
measured in (see ``calib``).
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter

import spec
from tracing import ARG, END, LAYER, NAME, OP, PARENT, START
from workloads import Run

QUERY_SHAPES = tuple(spec.QUERY_SHAPES)
MIB = float(1 << 20)


def headline_shapes(workload: str) -> tuple[str, ...]:
    op = spec.HEADLINE_OP[workload]
    return QUERY_SHAPES if op == "query" else (op,)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty class."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def theil_sen(xs: list[float], ys: list[float]) -> float:
    """Median slope over the pairs (i, i + n/2): robust to checkpoint spikes."""
    half = len(xs) // 2
    slopes = [
        (ys[i + half] - ys[i]) / (xs[i + half] - xs[i])
        for i in range(half)
        if xs[i + half] != xs[i]
    ]
    return median(slopes)


class Normalised:
    """The window's latencies divided by their speed index, by shape."""

    def __init__(self, run: Run) -> None:
        window = run.window
        mids = [s + l / 2 for s, l in zip(window.starts, window.latencies)]
        self.index = run.sampler.indices(mids)
        self.latency = [l / i for l, i in zip(window.latencies, self.index)]
        self.shapes = window.shapes
        self.total_s = sum(self.latency)
        self.raw_total_s = sum(window.latencies)

    def of(self, *shapes: str) -> list[float]:
        return [l for l, s in zip(self.latency, self.shapes) if s in shapes]


def _latency_metrics(norm: Normalised) -> dict[str, float]:
    out = {}
    for prefix, shapes in (("submit", ("submit",)), ("ingest_batch", ("ingest_batch",)),
                           ("retrieve", ("retrieve",)), ("query", QUERY_SHAPES)):
        values = norm.of(*shapes)
        out[f"{prefix}_p50_ms"] = percentile(values, 0.50) * 1e3
        out[f"{prefix}_p95_ms"] = percentile(values, 0.95) * 1e3
    submits = norm.of("submit")
    quarter = len(submits) // 4
    for q in range(4):
        out[f"submit_p50_ms.q{q + 1}"] = median(submits[q * quarter:(q + 1) * quarter]) * 1e3
    out["submit_drift_ratio"] = ratio(out["submit_p50_ms.q4"], out["submit_p50_ms.q1"])
    return out


def diagnostics(run: Run, norm: Normalised) -> dict[str, float]:
    index = norm.index
    wall = run.window.wall_s
    headline = headline_shapes(run.plan.workload)
    raw = [l for l, s in zip(run.window.latencies, norm.shapes) if s in headline]
    return {
        "bench.raw_op_p50_ms": percentile(raw, 0.5) * 1e3,
        "bench.speed_index_p50": percentile(index, 0.5),
        "bench.speed_index_spread": ratio(
            percentile(index, 0.9) - percentile(index, 0.1), percentile(index, 0.5)
        ),
        "bench.raw_ops_per_s": ratio(len(norm.latency), norm.raw_total_s),
        "bench.generator_share": ratio(wall - norm.raw_total_s, wall),
    }


def end_to_end(run: Run, norm: Normalised) -> dict[str, float]:
    """Every untraced metric the workload is reported on, by name."""
    workload = run.plan.workload
    values = _latency_metrics(norm)
    headline = norm.of(*headline_shapes(workload))
    values.update({
        "setup_s": median(run.setups),
        "ops_per_s": ratio(len(norm.latency), norm.total_s),
        "op_p50_ms": percentile(headline, 0.50) * 1e3,
        "op_p95_ms": percentile(headline, 0.95) * 1e3,
        "stored_bytes_per_user_byte": ratio(run.stored_bytes, run.user_bytes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ops_ratio": ratio(len(run.failures), run.attempted),
    })
    return {m.name: values[m.name] for m in spec.untraced_for(workload)}


def sample_counts(norm: Normalised) -> dict[str, int]:
    return dict(Counter(norm.shapes))


class _Spans:
    """Totals by span name, each time divided by its op's speed index."""

    def __init__(self, run: Run, norm: Normalised) -> None:
        recorder = run.recorder
        self_s = recorder.self_times()
        index = norm.index
        self.count: dict[str, int] = {}
        self.dur: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.arg: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        self.root_total = 0.0
        self.core_root_self = 0.0
        self.apply: list[float] = []            # index.apply_block durations, in order
        self.prove_root = 0.0                   # index.root outside apply_block
        self.checkpoint_file_bytes = 0.0
        for span in recorder.spans:
            name = span[NAME]
            scale = 1.0 / index[span[OP]]
            dur = (span[END] - span[START]) * scale
            own = self_s[id(span)] * scale
            self.count[name] = self.count.get(name, 0) + 1
            self.dur[name] = self.dur.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.arg[name] = self.arg.get(name, 0.0) + span[ARG]
            self.layer_self[span[LAYER]] = self.layer_self.get(span[LAYER], 0.0) + own
            parent = span[PARENT]
            if parent is None:
                self.root_total += dur
                if span[LAYER] == "core":
                    self.core_root_self += own
            if name == "index.apply_block":
                self.apply.append(dur)
            elif name == "index.root" and (parent is None or parent[NAME] != "index.apply_block"):
                self.prove_root += dur
            elif name == "disk.write_file" and parent is not None and (
                parent[NAME] == "storage.checkpoint_peer"
            ):
                self.checkpoint_file_bytes += span[ARG]

    def durs(self, *names: str) -> float:
        return sum(self.dur.get(n, 0.0) for n in names)

    def selfs(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def counts(self, *names: str) -> int:
        return sum(self.count.get(n, 0) for n in names)

    def args(self, *names: str) -> float:
        return sum(self.arg.get(n, 0.0) for n in names)


def per_layer(run: Run, norm: Normalised) -> dict[str, float]:
    """Every per-layer metric of ``spec.PER_LAYER`` (0.0 where the workload
    does not exercise the layer); ``bench.trace_overhead_ratio`` is filled in
    by the caller, which also has the untraced run."""
    spans = _Spans(run, norm)
    window = run.window
    d = run.deltas
    txs, blocks = d["txs_ordered"], d["blocks"]
    root = spans.root_total
    out: dict[str, float] = {}

    # core: the client-facing operations themselves.
    for name, value in _latency_metrics(norm).items():
        out[f"core.{name}"] = value
    submit_rows = [
        (h / 1e3, l * 1e6)
        for h, l, s in zip(window.heights, norm.latency, norm.shapes) if s == "submit"
    ]
    out["core.submit_us_per_kblock_slope"] = theil_sen(
        [h for h, _ in submit_rows], [l for _, l in submit_rows]
    )
    n_shape = sample_counts(norm)
    for shape in ("submit", "retrieve"):
        cut = sum(b for b, s in zip(window.blocks, norm.shapes) if s == shape)
        out[f"core.blocks_per_{shape}"] = ratio(cut, n_shape.get(shape, 0))
    out["core.retries_per_op"] = ratio(d["retries"], len(norm.shapes))

    stored = n_shape.get("submit", 0) + spans.args("BatchIngestor.ingest")
    out["trust.self_us_per_submit"] = ratio(spans.layer_self.get("trust", 0.0) * 1e6, stored)
    out["trust.score_tx_per_submit"] = ratio(
        spans.counts("Framework.record_trust_on_chain"), stored
    )

    added_mib = spans.args("IpfsCluster.add", "IpfsCluster.add_many") / MIB
    add_s = spans.durs("IpfsCluster.add", "IpfsCluster.add_many")
    out["ipfs.add_us_per_mib"] = ratio(add_s * 1e6, added_mib)
    out["ipfs.add_share"] = ratio(add_s, root)
    out["ipfs.blocks_per_mib"] = ratio(d["ipfs_blocks"], added_mib)
    out["ipfs.cat_us_per_mib"] = ratio(
        spans.durs("IpfsCluster.cat") * 1e6, spans.args("IpfsCluster.cat") / MIB
    )

    out["fabric.endorse_us_per_tx"] = ratio(spans.selfs("Channel.endorse") * 1e6, txs)
    out["fabric.assemble_us_per_tx"] = ratio(spans.selfs("Channel.assemble") * 1e6, txs)
    out["fabric.order_us_per_tx"] = ratio(
        spans.selfs("orderer.submit", "orderer.flush") * 1e6, txs
    )
    out["fabric.commit_us_per_block"] = ratio(spans.selfs("Peer.commit_block") * 1e6, blocks)
    out["fabric.txs_per_block"] = ratio(txs, blocks)
    out["fabric.ledger_bytes_per_tx"] = ratio(run.ledger_bytes, txs)
    out["fabric.query_us_per_call"] = ratio(
        spans.durs("Channel.query") * 1e6, spans.counts("Channel.query")
    )

    out["consensus.run_us_per_block"] = ratio(
        spans.selfs("consensus.submit", "consensus.run") * 1e6, blocks
    )
    out["consensus.msgs_per_tx"] = ratio(d["consensus_messages"], txs)
    out["consensus.msgs_per_block"] = ratio(d["consensus_messages"], blocks)
    out["consensus.instances_per_tx"] = ratio(d["batches_ordered"], txs)

    quarter = len(spans.apply) // 4      # spans: one per block and peer
    out["index.apply_us_per_block"] = ratio(sum(spans.apply) * 1e6, blocks)
    out["index.apply_us_per_block.q1"] = ratio(sum(spans.apply[:quarter]) * 1e6, blocks / 4)
    out["index.apply_us_per_block.q4"] = ratio(
        sum(spans.apply[len(spans.apply) - quarter:]) * 1e6, blocks / 4
    )
    out["index.postings"] = float(run.postings)
    out["index.lookup_us_per_call"] = ratio(
        spans.durs("index.lookup", "index.lookup_time_range") * 1e6,
        spans.counts("index.lookup", "index.lookup_time_range"),
    )
    out["index.prove_us_per_call"] = ratio(
        (spans.durs("index.prove") + spans.prove_root) * 1e6, spans.counts("index.prove")
    )

    checkpoints = spans.counts("storage.checkpoint_peer")
    out["storage.wal_us_per_block"] = ratio(
        spans.selfs("storage.record_commit", "storage.record_submit", "storage.record_batch")
        * 1e6, blocks,
    )
    out["storage.checkpoint_ms_per_checkpoint"] = ratio(
        spans.durs("storage.checkpoint_peer") * 1e3, checkpoints
    )
    out["storage.checkpoint_share"] = ratio(spans.durs("storage.checkpoint_peer"), root)
    out["storage.checkpoints"] = float(d["checkpoints"])
    out["storage.wal_records"] = float(d["wal_records"])
    out["storage.wal_bytes_per_tx"] = ratio(spans.args("disk.append"), txs)
    out["storage.checkpoint_bytes_per_checkpoint"] = ratio(
        spans.checkpoint_file_bytes, checkpoints
    )

    for shape in QUERY_SHAPES:
        values = norm.of(shape)
        if shape in ("class", "scan"):
            out[f"query.{shape}_p50_ms"] = median(values) * 1e3
        else:
            out[f"query.{shape}_p50_us"] = median(values) * 1e6
        out[f"query.{shape}_share"] = ratio(sum(values), norm.total_s)
    out["query.fetch_verify_us_per_mib"] = ratio(
        spans.durs("QueryEngine.fetch_payload_verified") * 1e6,
        spans.args("QueryEngine.fetch_payload_verified") / MIB,
    )
    out["query.cache_hit_ratio"] = ratio(d["query.cache_hits"], d["query.queries"])
    out["query.cache_evictions"] = float(d["query.cache_evictions"])
    out["query.index_route_ratio"] = ratio(
        d["query.index_hits"], d["query.index_hits"] + d["query.index_misses"]
    )
    out["query.rows_scanned_per_row_returned"] = ratio(
        d["query.rows_scanned"], d["query.rows_returned"]
    )

    def center(name: str) -> tuple[int, float, int]:
        return run.profile.get(name, (0, 0.0, 0))

    # util / crypto are imported by name inside the program and cannot be
    # wrapped from here: their numbers are the program's own profiler
    # counters, and their time is *inside* the span layers above.
    index_p50 = median(norm.index) or 1.0
    json_calls, json_s, json_bytes = center("serialize.canonical_json")
    out["util.canonical_json_calls_per_tx"] = ratio(json_calls, txs)
    out["util.canonical_json_bytes_per_tx"] = ratio(json_bytes, txs)
    out["util.canonical_json_share"] = ratio(json_s / index_p50, root)
    out["crypto.sign_calls_per_tx"] = ratio(center("crypto.sign")[0], txs)
    out["crypto.verify_calls_per_tx"] = ratio(center("crypto.verify")[0], txs)
    out["crypto.merkle_calls_per_block"] = ratio(center("crypto.merkle")[0], blocks)
    out["crypto.hash_bytes_per_user_byte"] = ratio(center("crypto.hash")[2], d["user_bytes"])
    out["crypto.hash_share"] = ratio(center("crypto.hash")[1] / index_p50, root)

    for layer in spec.LAYERS:
        out[f"share.{layer}"] = ratio(spans.layer_self.get(layer, 0.0), root)
    out["bench.span_coverage"] = 1.0 - ratio(spans.core_root_self, root)
    out["bench.trace_overhead_ratio"] = 0.0
    out.update(diagnostics(run, norm))
    return {name: out[name] for name in spec.PER_LAYER_NAMES}


def span_counts(run: Run) -> dict[str, int]:
    """Span counts by name, for the self-test against the program's accessors."""
    return dict(Counter(span[NAME] for span in run.recorder.spans))
