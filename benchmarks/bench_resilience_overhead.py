"""Overhead of the resilience layer on the happy path.

The resilience acceptance bar: wrapping a call in :func:`repro.resilience.retry`
or a :class:`repro.resilience.CircuitBreaker` must cost almost nothing when the
dependency is healthy — a first-attempt success allocates no RNG and touches no
metrics registry, and a closed breaker is one state check per call. The
end-to-end figure compares ``Framework.resilient_invoke`` against a raw
``channel.invoke`` on the same deployment.
"""

from repro.bench import emit_json
from repro.core import Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience import CircuitBreaker, retry
from repro.trust import SourceTier

N = 5_000


def _bare():
    return 42


def test_retry_happy_path_overhead(benchmark):
    set_registry(MetricsRegistry())

    def loop():
        for _ in range(N):
            retry(_bare, op="bench")

    benchmark(loop)
    per_call_s = benchmark.stats.stats.mean / N
    emit_json(
        "resilience_overhead",
        {"retry_happy_per_call_s": [per_call_s]},
        meta={"calls_per_round": N, "path": "retry, first-attempt success"},
        seed=0,
    )
    # One try/except frame around the call: must stay in the microsecond
    # range, far below any real dependency call it will ever wrap.
    assert per_call_s < 2e-5, f"retry wrapper cost {per_call_s * 1e9:.0f} ns/call"


def test_closed_breaker_overhead(benchmark):
    set_registry(MetricsRegistry())
    breaker = CircuitBreaker("bench", failure_threshold=5, cooldown_s=1.0)

    def loop():
        for _ in range(N):
            breaker.call(_bare)

    benchmark(loop)
    per_call_s = benchmark.stats.stats.mean / N
    emit_json(
        "resilience_overhead_breaker",
        {"closed_breaker_per_call_s": [per_call_s]},
        meta={"calls_per_round": N, "path": "closed breaker, success"},
        seed=0,
    )
    assert per_call_s < 2e-5, f"closed breaker cost {per_call_s * 1e9:.0f} ns/call"


def test_resilient_invoke_vs_raw_invoke(benchmark):
    """End-to-end: the hardened submit path vs the raw channel call."""
    import time

    set_registry(MetricsRegistry())
    framework = Framework(FrameworkConfig(consensus="solo"))
    identity = framework.register_source("bench-cam", tier=SourceTier.TRUSTED)
    rounds = 50

    # Raw baseline, measured inline (same deployment, interleaving keeps
    # ledger-growth effects comparable between the two series).
    raw_s = []
    for i in range(rounds):
        cid = CID.for_data(b"raw-%d" % i).encode()
        t0 = time.perf_counter()
        framework.channel.invoke(identity, "data_upload", "store", [cid, "{}"])
        raw_s.append(time.perf_counter() - t0)

    state = {"i": 0}

    def hardened():
        i = state["i"] = state["i"] + 1
        cid = CID.for_data(b"res-%d" % i).encode()
        framework.resilient_invoke(identity, "data_upload", "store", [cid, "{}"])

    benchmark(hardened)
    hardened_s = benchmark.stats.stats.mean
    raw_mean = sum(raw_s) / len(raw_s)
    emit_json(
        "resilience_overhead_invoke",
        {"raw_invoke_s": raw_s, "resilient_invoke_s": [hardened_s]},
        meta={
            "rounds": rounds,
            "overhead_ratio": hardened_s / raw_mean if raw_mean else 0.0,
        },
        seed=0,
    )
    # The wrapper adds a breaker check + closure per call on top of a full
    # endorse/order/validate round trip; it must stay within 2x raw.
    assert hardened_s < raw_mean * 2 + 1e-3
