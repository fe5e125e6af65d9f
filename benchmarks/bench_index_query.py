"""Index-query benchmark: sublinear retrieval vs full-scan, with parity.

The tentpole acceptance bar for the authenticated secondary index
(:mod:`repro.index`): equality queries answered through the index must stay
sublinear in ledger height while the chaincode full scan grows linearly,
and the two routes must return byte-identical answers.

Two tiers, and the fixed cost in front of them:

* **Synthetic scaling** — world states of growing height (up to 10^5
  records in the full run) with the camera population growing in
  proportion, so one camera's posting stays a fixed ~100 records. The
  ``indexed_rows_examined`` series is EXACT and must stay flat while
  ``scan_rows_examined`` is EXACT and equals the record count — the
  sublinearity evidence is in deterministic counts, with wall-clock
  series (TIMING) alongside. The write side and the proof are measured at
  the same sizes: one more record-bearing block through ``apply_block`` and
  one ``prove`` must not grow in shape with the index — the leaves one
  block re-serialises is an EXACT count that stays equal, the timings
  (median of several samples) stay within a constant factor while the
  ledger grows up to 100x.
* **Fabric parity** — a real deployment at epoch-scale timestamps: every
  query shape (equality, time window with ``<`` / ``<=`` / ``=`` edges,
  ``class ... LIMIT k``, unindexed predicates) runs through both the state
  routes (index, or the state scan when nothing routes) and the chaincode
  full scan (``QueryEngine.scan``) and the answers must be byte-identical;
  verified answers' Merkle membership proofs must check out against the
  epoch root. All
  counts are EXACT, including what the read path is meant to cost:
  ``limit_rows_examined`` (a LIMIT stops at its last row),
  ``window_rows_filtered`` (a window-only query is answered by the index's
  bisected time lookup, and its residual runs on no row, = 0) and
  ``repeat_records_decoded`` (a repeated query decodes nothing, = 0).
* **Parse + plan** — what every query text pays before it reads a row:
  ``parse_plan_<shape>_ms`` (TIMING) for the e2e ``eq_hot``, ``eq_adhoc``
  and ``range`` text shapes. Their exact call counts are gated in
  ``tests/test_query.py``.

Runnable standalone for CI (``python benchmarks/bench_index_query.py
--quick``): smaller sizes, same gates, emits ``index_query_quick``.
"""

import statistics
import time
from types import SimpleNamespace

from repro.bench import emit, emit_json, format_table
from repro.crypto.cid import CID
from repro.crypto.merkle import MerkleTree
from repro.fabric.tx import WriteEntry
from repro.fabric.worldstate import Version, WorldState
from repro.index import PeerIndex, verify_answer_records, verify_posting_proof
from repro.obs.prof import profiling
from repro.util.serialization import canonical_json

FULL_SIZES = (2_000, 20_000, 100_000)
QUICK_SIZES = (1_000, 8_000)
RECORDS_PER_CAMERA = 100
TXS_PER_BLOCK = 16
CLASSES = ("car", "truck", "bus", "motorcycle")
WRITE_SAMPLES = 7
OPS_PER_SAMPLE = 25
# apply_block / prove may cost this many times more at the largest size than
# at the smallest (tree depth grows by log2 of the size ratio; a re-hash of
# every leaf would grow by the size ratio itself, 8x quick / 50x full).
MAX_WRITE_GROWTH = 3.0


# -- tier 1: synthetic scaling -------------------------------------------------


def _record(i: int, cam: str, timestamp: float) -> tuple[str, bytes]:
    entry_id = f"e{i:07d}"
    record = {
        "entry_id": entry_id,
        "cid": f"bafy-{i:07d}",
        "metadata": {
            "camera_id": cam,
            "timestamp": timestamp,
            "detections": [{"vehicle_class": CLASSES[i % len(CLASSES)]}],
        },
        "source_id": cam,
        "uploader": cam,
        "uploader_org": "org1",
    }
    return f"data:{entry_id}", canonical_json(record)


def _build_world(n: int) -> tuple[WorldState, int]:
    """A committed world state of ``n`` data records, ``n / 100`` cameras."""
    world = WorldState()
    cameras = max(4, n // RECORDS_PER_CAMERA)
    for i in range(n):
        key, raw = _record(i, f"cam-{i % cameras:05d}", float(i))
        world.apply_write(
            key,
            raw,
            Version(block=i // TXS_PER_BLOCK + 1, tx=i % TXS_PER_BLOCK),
            tx_id=f"tx-{i}",
            timestamp=0.0,
        )
    height = (n - 1) // TXS_PER_BLOCK + 2
    return world, height


def _scan(world: WorldState, camera: str) -> list[dict]:
    import json

    out = []
    for _, raw in world.range("data:", "data:\x7f"):
        record = json.loads(raw)
        if record["metadata"]["camera_id"] == camera:
            out.append(record)
    return out


def _indexed(world: WorldState, index: PeerIndex, camera: str) -> list[dict]:
    import json

    return [
        json.loads(world.get(f"data:{eid}"))
        for eid in index.lookup("camera", camera)
    ]


def _probe_block(number: int, i: int, camera: str, timestamp: float):
    """The slice of a committed block ``apply_block`` reads, one record."""
    key, raw = _record(i, camera, timestamp)
    tx = SimpleNamespace(rwset=SimpleNamespace(writes=(WriteEntry(key, raw),)))
    return SimpleNamespace(number=number, validation_codes=(), transactions=[tx])


def _write_side(index: PeerIndex, n: int, camera: str) -> dict:
    """Cost of one more record-bearing block, and of one proof, on an index
    of ``n`` records. Every probe record appends to postings that already
    exist (its camera, source, class and the newest time bucket), the
    steady state of a ledger whose population has stopped growing."""
    block = _probe_block(index.height, n, camera, float(n - 1))
    with profiling() as profiler:  # the count pass is not timed
        index.apply_block(block)
    leaves_serialized = sum(
        s.calls
        for s in profiler.center_stats()
        if s.center == "serialize.index_leaf"
    )
    apply_ms, prove_ms = [], []
    for k in range(WRITE_SAMPLES):  # each sample is the mean of a short burst
        first = n + 1 + k * OPS_PER_SAMPLE
        blocks = [
            _probe_block(index.height + j, first + j, camera, float(n - 1))
            for j in range(OPS_PER_SAMPLE)
        ]
        t0 = time.perf_counter()
        for block in blocks:
            index.apply_block(block)
        apply_ms.append((time.perf_counter() - t0) * 1e3 / OPS_PER_SAMPLE)
        t0 = time.perf_counter()
        for _ in range(OPS_PER_SAMPLE):
            proof = index.prove("camera", camera)
        prove_ms.append((time.perf_counter() - t0) * 1e3 / OPS_PER_SAMPLE)
        assert verify_posting_proof(proof, index.root())
    assert index.root() == MerkleTree(index.leaves()).root.hex(), (
        f"maintained root diverged from the reference at n={n}"
    )
    return {
        "apply_block_ms": apply_ms,
        "prove_ms": prove_ms,
        "apply_leaves_serialized": float(leaves_serialized),
    }


def _scaling_round(n: int) -> dict:
    world, height = _build_world(n)
    index = PeerIndex.from_world(world, height)
    # The probe camera sits mid-population so its posting is full-sized.
    cameras = max(4, n // RECORDS_PER_CAMERA)
    camera = f"cam-{cameras // 2:05d}"

    t0 = time.perf_counter()
    via_index = _indexed(world, index, camera)
    indexed_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    via_scan = _scan(world, camera)
    scan_ms = (time.perf_counter() - t0) * 1e3

    assert canonical_json(sorted(via_index, key=lambda r: r["entry_id"])) == (
        canonical_json(sorted(via_scan, key=lambda r: r["entry_id"]))
    ), f"index answer diverged from scan at n={n}"
    proof = index.prove("camera", camera)
    verified = verify_answer_records(via_index, (proof,), index.root())
    assert verified == len(via_index)
    return {
        **_write_side(index, n, camera),
        "n": n,
        "indexed_rows_examined": float(len(via_index)),
        "scan_rows_examined": float(n),
        "indexed_ms": indexed_ms,
        "scan_ms": scan_ms,
        "proof_verified_records": float(verified),
    }


# -- tier 2: fabric parity -----------------------------------------------------

# Epoch-scale, where float64 spacing (2.4e-7 s) swallows a fixed epsilon on a
# range's upper edge; records are 200 s apart from here.
_T0 = 1_700_000_000
PARITY_RECORDS = 48
_LIMIT_QUERY = f"vehicle_class = 'car' AND metadata.timestamp >= {_T0 + 4800} LIMIT 4"
# Four buckets: two edges, two the window wholly covers.
_WINDOW_QUERY = f"metadata.timestamp >= {_T0} AND metadata.timestamp < {_T0 + 1800}"
_PARITY_QUERIES = (
    "source_id = 'par-cam-1'",
    "vehicle_class = 'truck'",
    _WINDOW_QUERY,
    f"vehicle_class = 'car' AND metadata.timestamp >= {_T0 + 600}",
    f"metadata.timestamp >= {_T0} AND metadata.timestamp <= {_T0 + 400}",
    f"metadata.timestamp = {_T0 + 400}",
    _LIMIT_QUERY,
    f"metadata.timestamp >= {_T0 + 4000}",  # half-open, no index route: state scan
    "color = 'red'",  # no index route, no rows
)


def _parity_round() -> dict:
    from repro.core import Framework, FrameworkConfig
    from repro.query import QueryEngine
    from repro.trust import SourceTier

    framework = Framework(FrameworkConfig(consensus="solo"))
    identities = {}
    for cam in ("par-cam-1", "par-cam-2"):
        identities[cam] = framework.register_source(cam, tier=SourceTier.TRUSTED)
    for i in range(PARITY_RECORDS):
        cam = f"par-cam-{i % 2 + 1}"
        meta = {
            "source_id": cam,
            "camera_id": cam,
            "timestamp": float(_T0 + i * 200),
            "detections": [{"vehicle_class": CLASSES[i % len(CLASSES)]}],
        }
        framework.channel.invoke(
            identities[cam],
            "data_upload",
            "store",
            [CID.for_data(b"par-%d" % i).encode(), canonical_json(meta).decode()],
        )
    engine = QueryEngine(
        channel=framework.channel,
        cluster=framework.ipfs,
        identity=identities["par-cam-1"],
    )
    stats = engine.stats
    parity_queries = 0
    proofs_verified = 0
    repeat_decoded = 0
    limit_examined = 0
    window_filtered, window_examined = _residual_calls(engine, _WINDOW_QUERY)
    for text in _PARITY_QUERIES:
        indexed = [r.record for r in engine.run(text)]
        decoded, examined = stats.records_decoded, stats.rows_scanned
        engine.run(text)
        repeat_decoded += stats.records_decoded - decoded
        if text == _LIMIT_QUERY:
            limit_examined = stats.rows_scanned - examined
        assert canonical_json(indexed) == canonical_json(engine.scan(text)), (
            f"parity violation for {text!r}"
        )
        parity_queries += 1
    for text in _PARITY_QUERIES:
        if engine.plan(text).index_route is None:
            continue  # nothing to prove without an index route
        answer = engine.run_verified(text)
        answer.verify()
        proofs_verified += len(answer.proofs)
    # The index's time lookup is the window's answer: every row examined is
    # returned, and none meets the residual.
    assert window_filtered == 0 < window_examined, (window_filtered, window_examined)
    return {
        "parity_queries": float(parity_queries),
        "proofs_verified": float(proofs_verified),
        "limit_rows_examined": float(limit_examined),
        "window_rows_filtered": float(window_filtered),
        "repeat_records_decoded": float(repeat_decoded),
    }


def _residual_calls(engine, text: str) -> tuple[int, int]:
    """``(residual evaluations, rows examined)`` for one run of ``text``."""
    filtered, examined = engine.stats.rows_filtered, engine.stats.rows_scanned
    engine.run(text)
    return engine.stats.rows_filtered - filtered, engine.stats.rows_scanned - examined


# -- fixed cost: parse + plan ---------------------------------------------------

# The e2e query_static workload's eq_hot, eq_adhoc and range text shapes.
_PARSE_PLAN_TEXTS = {
    "eq_hot": "metadata.camera_id = 'cam-003'",
    "eq_adhoc": f"metadata.camera_id = 'cam-017' AND metadata.timestamp >= {_T0 + 12340}",
    "range": f"metadata.timestamp >= {_T0 + 12340} AND metadata.timestamp < {_T0 + 15940}",
}
PARSE_PLAN_REPEATS = 2000


def _parse_plan() -> dict:
    """``plan_query(parse_query(text))`` per text shape: samples of the mean
    over a burst, in ms (the ``_ms`` suffix makes the series TIMING)."""
    from repro.query import parse_query, plan_query

    series = {}
    for shape, text in _PARSE_PLAN_TEXTS.items():
        samples = []
        for _ in range(WRITE_SAMPLES):
            t0 = time.perf_counter()
            for _ in range(PARSE_PLAN_REPEATS):
                plan_query(parse_query(text))
            samples.append((time.perf_counter() - t0) * 1e3 / PARSE_PLAN_REPEATS)
        series[f"parse_plan_{shape}_ms"] = samples
    return series


# -- harness ---------------------------------------------------------------------


def _run(sizes) -> dict:
    rounds = [_scaling_round(n) for n in sizes]
    series = {}
    for r in rounds:
        n = int(r["n"])
        for key in ("indexed_rows_examined", "scan_rows_examined",
                    "indexed_ms", "scan_ms", "proof_verified_records",
                    "apply_block_ms", "prove_ms", "apply_leaves_serialized"):
            name = f"{key}_n{n}"
            if key.endswith("_ms"):
                # _ms suffix keeps the trend taxonomy classifying it TIMING.
                name = f"{key[:-3]}_n{n}_ms"
            series[name] = r[key] if isinstance(r[key], list) else [r[key]]
    for key, value in _parity_round().items():
        series[key] = [value]
    series.update(_parse_plan())
    return series


def _gate(series: dict, sizes) -> None:
    lo, hi = sizes[0], sizes[-1]
    examined_lo = series[f"indexed_rows_examined_n{lo}"][0]
    examined_hi = series[f"indexed_rows_examined_n{hi}"][0]
    # Sublinearity, on exact counts: the chain grew hi/lo times, the
    # indexed route's work did not grow at all (fixed posting size).
    assert examined_hi == examined_lo, (
        f"indexed work grew with chain height: {examined_lo} -> {examined_hi}"
    )
    assert series[f"scan_rows_examined_n{hi}"][0] == float(hi)
    # Loose timing sanity at the largest size (counts are the real gate).
    assert series[f"indexed_n{hi}_ms"][0] < series[f"scan_n{hi}_ms"][0], (
        "indexed route slower than a full scan at the largest size"
    )
    assert series["parity_queries"][0] == float(len(_PARITY_QUERIES))
    # The read path costs what it returns: a LIMIT stops inside the class
    # posting (one record in four is a car), a repeat decodes nothing.
    assert 4 <= series["limit_rows_examined"][0] < PARITY_RECORDS // len(CLASSES)
    assert series["repeat_records_decoded"][0] == 0.0
    # The write side and the proof do not grow in shape with the index.
    assert series[f"apply_leaves_serialized_n{hi}"] == (
        series[f"apply_leaves_serialized_n{lo}"]
    ), "one block re-serialises more leaves on a larger index"
    for op in ("apply_block", "prove"):
        at_lo = statistics.median(series[f"{op}_n{lo}_ms"])
        at_hi = statistics.median(series[f"{op}_n{hi}_ms"])
        assert at_hi <= MAX_WRITE_GROWTH * at_lo, (
            f"{op} grew {at_hi / at_lo:.1f}x while the ledger grew {hi // lo}x "
            f"({at_lo * 1e3:.0f} -> {at_hi * 1e3:.0f} us)"
        )


def _emit(series: dict, sizes, name: str) -> None:
    rows = []
    for n in sizes:
        rows.append([
            n,
            int(series[f"indexed_rows_examined_n{n}"][0]),
            int(series[f"scan_rows_examined_n{n}"][0]),
            f"{series[f'indexed_n{n}_ms'][0]:.2f}",
            f"{series[f'scan_n{n}_ms'][0]:.2f}",
            f"{statistics.median(series[f'apply_block_n{n}_ms']) * 1e3:.0f}",
            f"{statistics.median(series[f'prove_n{n}_ms']) * 1e3:.0f}",
        ])
    text = format_table(
        f"Indexed vs full-scan retrieval ({RECORDS_PER_CAMERA} records/camera)",
        ["records", "index rows", "scan rows", "index ms", "scan ms",
         "apply us/block", "prove us"],
        rows,
    )
    emit(name, text)
    emit_json(
        name,
        series,
        meta={
            "sizes": list(sizes),
            "records_per_camera": RECORDS_PER_CAMERA,
            "parity_queries": len(_PARITY_QUERIES),
        },
        seed=0,
    )


def test_index_query(benchmark):
    series = benchmark.pedantic(lambda: _run(QUICK_SIZES), rounds=1, iterations=1)
    _emit(series, QUICK_SIZES, "index_query_quick")
    _gate(series, QUICK_SIZES)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for the CI index gate (emits index_query_quick)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    series = _run(sizes)
    _emit(series, sizes, "index_query_quick" if args.quick else "index_query")
    _gate(series, sizes)
    hi = sizes[-1]
    print(
        f"gate OK: indexed route examined "
        f"{int(series[f'indexed_rows_examined_n{hi}'][0])} rows at height "
        f"{hi} (scan: {hi}), {int(series['parity_queries'][0])} queries "
        f"byte-identical across routes, "
        f"{int(series['proofs_verified'][0])} proofs verified"
    )


if __name__ == "__main__":
    main()
