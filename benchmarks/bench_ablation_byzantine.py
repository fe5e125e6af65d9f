"""Ablation: Byzantine validator fraction vs the 2/3 quorum claim.

Paper §III-A: "The BFT mechanism allows the network to tolerate up to
one-third of malicious validators." This bench injects increasing numbers
of corrupt validators (endorsing everything, rejecting everything, or
silent) into an n=7 cluster (f=2) and records whether valid transactions
still commit and how long consensus takes — the claim holds up to f and
breaks past it.
"""

import time

from repro.bench import emit, format_table
from repro.consensus import Behaviour, BftCluster
from repro.net import ConstantLatency, SimNetwork

N = 7  # f = 2
N_REQS = 5


def _run_with_faults(n_faulty: int, behaviour: Behaviour):
    cluster = BftCluster(
        n_replicas=N,
        network=SimNetwork(latency=ConstantLatency(base=0.001)),
        view_timeout=0.5,
    )
    for i in range(n_faulty):
        cluster.corrupt(f"validator-{N - 1 - i}", behaviour)
    start = time.perf_counter()
    requests = [cluster.submit({"n": i}) for i in range(N_REQS)]
    cluster.run(until=20.0)
    elapsed = time.perf_counter() - start
    agreed = sum(1 for r in requests if cluster.agreement_reached(r.request_id))
    accepted = sum(
        1
        for d in cluster.decided_log()
        if d.accepted and any(d.request.request_id == r.request_id for r in requests)
    )
    return agreed, accepted, elapsed


def test_ablation_byzantine_fraction(benchmark):
    def run():
        out = []
        for n_faulty in (0, 1, 2, 3):  # f=2; 3 exceeds the bound
            for behaviour in (Behaviour.SILENT, Behaviour.ALWAYS_INVALID):
                agreed, accepted, elapsed = _run_with_faults(n_faulty, behaviour)
                out.append((n_faulty, behaviour.value, agreed, accepted, elapsed))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, b, f"{agreed}/{N_REQS}", f"{accepted}/{N_REQS}", f"{el * 1e3:.1f}"]
        for n, b, agreed, accepted, el in results
    ]
    text = format_table(
        f"Ablation: Byzantine validators in n={N} (f=2) PBFT",
        ["faulty", "behaviour", "agreement", "accepted", "wall ms"],
        rows,
    )
    emit("ablation_byzantine", text)

    by_key = {(n, b): (agreed, accepted) for n, b, agreed, accepted, _ in results}
    # Within the bound: full agreement and acceptance.
    for n_faulty in (0, 1, 2):
        for behaviour in ("silent", "always-invalid"):
            agreed, accepted = by_key[(n_faulty, behaviour)]
            assert agreed == N_REQS, f"{n_faulty} {behaviour}: agreement lost within bound"
            assert accepted == N_REQS, f"{n_faulty} {behaviour}: valid txs rejected within bound"
    # Past the bound: silent majority-breaking stalls liveness entirely.
    agreed_past, _ = by_key[(3, "silent")]
    assert agreed_past < N_REQS, "3 silent of 7 must break the 2f+1 quorum"
