"""Ablation: validator-count scaling (the paper's future-work question
"assessing scalability … under various blockchain configurations").

Runs a bare PBFT cluster (:class:`repro.consensus.BftCluster`, no fabric
around it) at each validator count for a fixed number of decisions after a
warm-up, and reports the messages one decision costs, per protocol phase,
and its processor time. PBFT's all-to-all phases are O(n²) in messages —
exactly (n-1)(2n+1) per decision: n-1 pre-prepares, then n(n-1) prepares and
as many commits — so time per decision should grow smoothly with them.

``BENCH_ablation_validators.json`` carries, per n, the message counts (they
gate exactly) and ``n<k>_decision_ms`` (a timing series, so ``repro
bench-diff`` gates it at its timing tolerance). Runnable standalone for CI
(``python benchmarks/bench_ablation_validators.py``).
"""

import time
from collections import Counter

from repro.bench import emit, emit_json, format_table
from repro.consensus import BftCluster
from repro.net.simnet import NO_FAULT

VALIDATOR_COUNTS = (4, 7, 10, 13)
WARMUP = 20
DECISIONS = 200
REPEATS = 5
PHASES = ("PrePrepare", "Prepare", "Commit")


def _decide(cluster: BftCluster, n: int, start: int = 0) -> None:
    for i in range(start, start + n):
        cluster.submit({"tx": i})
        cluster.run()


def _phase_counts(n_validators: int) -> Counter:
    """Messages one steady-state decision sends, by kind, counted through
    the network's fault-injector hook (in an untimed pass)."""
    kinds: Counter = Counter()

    def count(msg):
        kinds[msg.kind] += 1
        return NO_FAULT

    cluster = BftCluster(n_validators)
    _decide(cluster, WARMUP)
    cluster.network.fault_injector = count
    _decide(cluster, DECISIONS, WARMUP)
    assert len(cluster.decided_log()) == WARMUP + DECISIONS
    return Counter({kind: kinds[kind] / DECISIONS for kind in kinds})


def _decision_ms(n_validators: int) -> float:
    cluster = BftCluster(n_validators)
    _decide(cluster, WARMUP)
    start = time.perf_counter()
    _decide(cluster, DECISIONS, WARMUP)
    elapsed = time.perf_counter() - start
    assert len(cluster.decided_log()) == WARMUP + DECISIONS
    return elapsed * 1e3 / DECISIONS


def _sweep(counts=VALIDATOR_COUNTS):
    return {
        n: {
            "phases": _phase_counts(n),
            "decision_ms": [_decision_ms(n) for _ in range(REPEATS)],
        }
        for n in counts
    }


def _check(results) -> None:
    for n, r in results.items():
        phases = r["phases"]
        assert (phases["PrePrepare"], phases["Prepare"], phases["Commit"]) == (
            n - 1, n * (n - 1), n * (n - 1)
        ), f"n={n}: {dict(phases)}"
        assert sum(phases.values()) == (n - 1) * (2 * n + 1)


def _emit(results) -> None:
    rows = []
    series = {}
    for n, r in results.items():
        phases, ms = r["phases"], sorted(r["decision_ms"])
        rows.append([n, (n - 1) // 3, *(f"{phases[p]:.0f}" for p in PHASES),
                     f"{sum(phases.values()):.0f}", f"{ms[len(ms) // 2] * 1e3:.0f}"])
        series[f"n{n}_msgs_per_decision"] = [sum(phases.values())]
        for phase in PHASES:
            series[f"n{n}_{phase.lower()}_msgs"] = [phases[phase]]
        series[f"n{n}_decision_ms"] = r["decision_ms"]
    emit("ablation_validators", format_table(
        f"Ablation: BFT validator count scaling (bare cluster, {DECISIONS} decisions "
        f"after {WARMUP} warm-up, median of {REPEATS})",
        ["validators", "f tolerated", "pre-prepare", "prepare", "commit",
         "msgs/decision", "us/decision"],
        rows,
    ))
    emit_json(
        "ablation_validators",
        series,
        meta={"validators": list(results), "warmup": WARMUP, "decisions": DECISIONS,
              "repeats": REPEATS},
        seed=0,
    )


def test_ablation_validator_scaling(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _emit(results)
    _check(results)


def main() -> None:
    results = _sweep()
    _emit(results)
    _check(results)
    for n, r in results.items():
        print(f"n={n:>2}: {sum(r['phases'].values()):.0f} msgs/decision, "
              f"{min(r['decision_ms']) * 1e3:.0f} us/decision (best of {REPEATS})")


if __name__ == "__main__":
    main()
