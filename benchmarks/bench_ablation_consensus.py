"""Ablation: BFT ordering vs solo (single-sequencer) ordering.

Prices the paper's choice of BFT consensus: what does Byzantine tolerance
cost per transaction on the full store path, compared to a single
sequencer, and how does that cost grow with the validator count?
"""

import time

from repro.bench import emit, format_table
from repro.core import Client, Framework, FrameworkConfig
from repro.trust import SourceTier
from repro.workloads.filesizes import payload

N_TXS = 20
DATA = payload(16 << 10, seed=9)


def _submit_n(framework, n=N_TXS):
    client = Client(framework, framework.register_source("abl-cam", tier=SourceTier.TRUSTED))
    start = time.perf_counter()
    for i in range(n):
        client.submit(DATA, {"timestamp": float(i), "detections": []})
    return (time.perf_counter() - start) / n


def test_ablation_consensus_cost(benchmark):
    def run():
        solo = _submit_n(Framework(FrameworkConfig(consensus="solo")))
        bft4 = _submit_n(Framework(FrameworkConfig(consensus="bft", n_validators=4)))
        bft7 = _submit_n(Framework(FrameworkConfig(consensus="bft", n_validators=7)))
        return solo, bft4, bft7

    solo, bft4, bft7 = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["solo orderer (no consensus)", f"{solo * 1e3:.3f}", "0", "none"],
        ["pbft n=4 (paper config)", f"{bft4 * 1e3:.3f}", "1", "byzantine"],
        ["pbft n=7", f"{bft7 * 1e3:.3f}", "2", "byzantine"],
    ]
    text = format_table(
        "Ablation: per-transaction ordering cost by consensus",
        ["ordering", "ms/tx (full store path)", "faults tolerated", "fault model"],
        rows,
    )
    emit("ablation_consensus", text)

    # Expected shape: BFT costs more than solo; more validators cost more.
    assert bft4 > solo
    assert bft7 > bft4 * 0.9  # larger cluster at least comparable
