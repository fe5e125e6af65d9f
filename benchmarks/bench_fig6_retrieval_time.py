"""Figure 6: retrieval time across file sizes, with and without blockchain
overheads.

Paper: "While retrieval time increases with file size, blockchain overhead
remains minimal … Since reading from the blockchain does not incur gas
costs, the process remains computationally inexpensive." The sweep fetches
each size directly by CID from IPFS, then through the full retrieval path
(on-chain metadata read + IPFS fetch + integrity verification), and checks
that reads never touch the ordering service.
"""

import numpy as np

from repro.bench import emit, emit_json, fig6_retrieval_times, format_table, human_size
from repro.bench.figures import _storage_framework
from repro.core import Client
from repro.crypto.cid import CID
from repro.trust import SourceTier
from repro.workloads.filesizes import payload

SIZES = (1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)


def test_fig6_sweep(benchmark):
    timings = benchmark.pedantic(
        fig6_retrieval_times, kwargs={"sizes": SIZES, "repeats": 3}, rounds=1, iterations=1
    )
    rows = [
        [
            human_size(t.size),
            f"{t.ipfs_only_s * 1e3:.3f}",
            f"{t.with_blockchain_s * 1e3:.3f}",
            f"{t.overhead_s * 1e3:.3f}",
        ]
        for t in timings
    ]
    text = format_table(
        "Figure 6: retrieval time vs file size (ms)",
        ["size", "IPFS by CID", "chain metadata + IPFS + verify", "blockchain overhead"],
        rows,
    )
    emit("fig6_retrieval_time", text)
    emit_json(
        "fig6_retrieval_time",
        {
            "ipfs_only_s": [t.ipfs_only_s for t in timings],
            "with_blockchain_s": [t.with_blockchain_s for t in timings],
            "overhead_s": [t.overhead_s for t in timings],
        },
        meta={"sizes_bytes": list(SIZES), "repeats": 3},
        seed=0,
    )

    sizes = np.array([t.size for t in timings], dtype=float)
    full = np.array([t.with_blockchain_s for t in timings])
    r = float(np.corrcoef(sizes, full)[0, 1])
    assert r > 0.9, f"retrieval should grow with file size (r={r:.3f})"
    # The on-chain read adds little on large files.
    assert timings[-1].overhead_s < 0.75 * timings[-1].with_blockchain_s


def test_fig6_reads_bypass_consensus(benchmark):
    """Reads must not generate ordering work — the no-gas-cost property.
    That holds for the client's whole retrieval path too: a read's
    ``accessed`` event cuts no block, it rides the next write's round."""
    framework = _storage_framework()
    client = Client(framework, framework.register_source("read-cam", tier=SourceTier.TRUSTED))
    receipt = client.submit(payload(64 << 10, seed=5), {"timestamp": 1.0, "detections": []})
    orderer = framework.channel.orderer
    blocks_before = orderer.blocks_cut
    benchmark(lambda: client.engine.get(receipt.entry_id, fetch_data=True))
    assert orderer.blocks_cut == blocks_before
    reads = 8  # under the queue bound that would force a round of its own
    for _ in range(reads):
        assert client.retrieve(receipt.entry_id).verified
    assert orderer.blocks_cut == blocks_before
    client.submit(payload(1 << 10, seed=8), {"timestamp": 2.0, "detections": []})
    assert orderer.blocks_cut == blocks_before + 1
    lineage = client.provenance(receipt.entry_id)
    assert [e["action"] for e in lineage].count("accessed") == reads


def test_fig6_retrieve_1mib_full_path(benchmark):
    framework = _storage_framework()
    client = Client(framework, framework.register_source("hot-ret", tier=SourceTier.TRUSTED))
    data = payload(1 << 20, seed=6, label="bench-ret")
    receipt = client.submit(data, {"timestamp": 2.0, "detections": []})

    def run():
        return client.engine.get(receipt.entry_id, fetch_data=True, verify=True)

    row = benchmark(run)
    assert row.data == data


def test_fig6_retrieve_1mib_cid_only(benchmark):
    framework = _storage_framework()
    data = payload(1 << 20, seed=7, label="bench-ret-cid")
    result = framework.ipfs.add(data)
    cid = result.cid

    fetched = benchmark(lambda: framework.ipfs.cat(cid))
    assert fetched == data
