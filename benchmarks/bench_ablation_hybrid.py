"""Ablation: hybrid storage (the paper's core design) vs all-on-chain.

The paper stores raw data off-chain in IPFS with only CIDs and metadata
on-chain "to minimize storage costs while preserving data integrity". This
bench quantifies that choice: store the same payloads (a) hybrid and (b)
naively on-chain (payload embedded in the transaction), and compare
per-transaction time and the resulting ledger footprint each peer carries.
"""

import base64
import time

from repro.bench import emit, format_table, human_size
from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.trust import SourceTier
from repro.workloads.filesizes import payload

SIZES = (16 << 10, 256 << 10, 1 << 20)
N_PER_SIZE = 3


def _ledger_bytes(framework) -> int:
    peer = next(iter(framework.channel.peers.values()))
    return sum(
        len(tx.envelope_bytes())
        for block in peer.ledger.blocks()
        for tx in block.transactions
    )


def _run_hybrid():
    framework = Framework(FrameworkConfig(consensus="bft"))
    client = Client(framework, framework.register_source("hyb-cam", tier=SourceTier.TRUSTED))
    times = {}
    for size in SIZES:
        start = time.perf_counter()
        for i in range(N_PER_SIZE):
            client.submit(payload(size, seed=13, label=f"hyb-{i}"),
                          {"timestamp": float(i), "detections": []})
        times[size] = (time.perf_counter() - start) / N_PER_SIZE
    return times, _ledger_bytes(framework)


def _run_onchain():
    framework = Framework(FrameworkConfig(consensus="bft"))
    admin = framework.admin
    times = {}
    import json

    # The record must name a CID; this one names no stored bytes.
    inline = CID.for_data(b"inline").encode()
    for size in SIZES:
        start = time.perf_counter()
        for i in range(N_PER_SIZE):
            blob = base64.b64encode(payload(size, seed=14, label=f"onc-{i}")).decode()
            # Naive design: the payload itself rides in the metadata record.
            framework.channel.invoke(
                admin, "data_upload", "store",
                [inline, json.dumps({"timestamp": float(i), "blob": blob})],
            )
        times[size] = (time.perf_counter() - start) / N_PER_SIZE
    return times, _ledger_bytes(framework)


def test_ablation_hybrid_vs_onchain(benchmark):
    def run():
        return _run_hybrid(), _run_onchain()

    (hybrid_times, hybrid_ledger), (onchain_times, onchain_ledger) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        [human_size(size), f"{hybrid_times[size] * 1e3:.2f}", f"{onchain_times[size] * 1e3:.2f}",
         f"{onchain_times[size] / hybrid_times[size]:.1f}x"]
        for size in SIZES
    ]
    rows.append(["ledger bytes/peer", human_size(hybrid_ledger), human_size(onchain_ledger),
                 f"{onchain_ledger / hybrid_ledger:.0f}x"])
    text = format_table(
        "Ablation: hybrid (IPFS + CID on-chain) vs all-on-chain (ms/tx)",
        ["size", "hybrid", "all-on-chain", "on-chain cost"],
        rows,
    )
    emit("ablation_hybrid", text)

    # The design claim: on-chain bloat explodes without the hybrid split.
    assert onchain_ledger > 20 * hybrid_ledger
    assert onchain_times[SIZES[-1]] > hybrid_times[SIZES[-1]]
