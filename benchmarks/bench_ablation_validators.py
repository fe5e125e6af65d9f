"""Ablation: validator-count scaling (the paper's future-work question
"assessing scalability … under various blockchain configurations").

Sweeps the BFT validator count and reports per-transaction latency and
consensus message volume. PBFT's all-to-all phases are O(n²) in messages,
so latency should grow smoothly — the framework degrades gracefully rather
than falling over.
"""

import time

from repro.bench import emit, format_table
from repro.core import Client, Framework, FrameworkConfig
from repro.trust import SourceTier
from repro.workloads.filesizes import payload

VALIDATOR_COUNTS = (4, 7, 10, 13)
N_TXS = 10
DATA = payload(8 << 10, seed=10)


def _run_config(n_validators: int):
    framework = Framework(FrameworkConfig(consensus="bft", n_validators=n_validators))
    client = Client(framework, framework.register_source("scale-cam", tier=SourceTier.TRUSTED))
    orderer = framework.channel.orderer
    msgs_before = orderer.consensus_messages
    start = time.perf_counter()
    for i in range(N_TXS):
        client.submit(DATA, {"timestamp": float(i), "detections": []})
    elapsed = (time.perf_counter() - start) / N_TXS
    # Client.submit is one ordered tx for a trusted source (record + trail;
    # an untrusted source adds a trust-score tx); count messages per ordered
    # transaction for a fair per-tx figure.
    ordered = orderer._cutter.txs_ordered
    msgs = (orderer.consensus_messages - msgs_before) / max(1, ordered)
    return elapsed, msgs


def test_ablation_validator_scaling(benchmark):
    def run():
        return [( n, *_run_config(n)) for n in VALIDATOR_COUNTS]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, (n - 1) // 3, f"{ms * 1e3:.3f}", f"{msgs:.1f}"]
        for n, ms, msgs in results
    ]
    text = format_table(
        "Ablation: BFT validator count scaling",
        ["validators", "f tolerated", "ms per store-path tx", "consensus msgs/tx"],
        rows,
    )
    emit("ablation_validators", text)

    msgs = [m for _, _, m in results]
    # O(n^2) message growth: 13 validators >> 4 validators.
    assert msgs[-1] > 4 * msgs[0]
    # Still functional at every size (implicit: all submits committed).
