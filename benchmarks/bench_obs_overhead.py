"""Overhead of the tracing and profiling layers, disabled and enabled.

The observability acceptance bar: with no tracer installed, an
instrumented call path costs one global read plus one ``is None`` check
and allocates nothing — the shared :data:`~repro.obs.probe.NOOP_SPAN` is
handed back to every caller, by ``profiled`` too while the cost-center
profiler is off. ``tracemalloc`` proves the zero-allocation
claims directly; pytest-benchmark bounds the per-call times against a
bare function call.
"""

import tracemalloc

from repro import obs
from repro.bench import emit_json
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span

N = 10_000


def _instrumented():
    with obs_span("bench.overhead") as sp:
        sp.set_attr("k", 1)
    return sp


def _prof_instrumented():
    with profiled("bench.overhead") as pf:
        pf.add_bytes(1)
    return pf


def _bare():
    return None


def test_disabled_span_allocates_nothing():
    obs.disable()
    _instrumented()  # warm-up: interns, bytecode caches
    tracemalloc.start()
    for _ in range(N):
        _instrumented()
    current, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Per-call allocation would show as >= N * sizeof(smallest object)
    # (~56 B * 10k = 560 KiB). A handful of bytes of interpreter noise is
    # the only tolerance.
    assert current < 2048, f"disabled tracing leaked {current} B over {N} calls"


def test_disabled_span_returns_shared_singleton():
    obs.disable()
    assert _instrumented() is _instrumented()


def test_disabled_span_call_time(benchmark):
    obs.disable()

    def loop():
        for _ in range(N):
            _instrumented()

    benchmark(loop)
    per_call_s = benchmark.stats.stats.mean / N
    emit_json(
        "obs_overhead_disabled",
        {"per_call_s": [per_call_s]},
        meta={"calls_per_round": N, "mode": "disabled"},
        seed=0,
    )
    # A guard check + context-manager protocol on a shared object: well
    # under a microsecond on any machine this runs on.
    assert per_call_s < 5e-6, f"disabled span cost {per_call_s * 1e9:.0f} ns/call"


def test_enabled_span_call_time(benchmark):
    tracer = obs.enable()

    def loop():
        for _ in range(N):
            _instrumented()
        tracer.clear()  # keep the finished list from growing across rounds

    benchmark(loop)
    obs.disable()
    per_call_s = benchmark.stats.stats.mean / N
    emit_json(
        "obs_overhead_enabled",
        {"per_call_s": [per_call_s]},
        meta={"calls_per_round": N, "mode": "enabled"},
        seed=0,
    )
    # Enabled tracing does real work (span object, clock reads, context
    # var); it just has to stay cheap relative to any instrumented stage.
    assert per_call_s < 1e-4


def test_disabled_profiler_allocates_nothing():
    obs.disable_profiler()
    _prof_instrumented()  # warm-up: interns, bytecode caches
    tracemalloc.start()
    for _ in range(N):
        _prof_instrumented()
    current, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert current < 2048, f"disabled profiling leaked {current} B over {N} calls"


def test_disabled_profiler_returns_shared_probe():
    obs.disable_profiler()
    assert _prof_instrumented() is _prof_instrumented()


def test_disabled_profiler_call_time(benchmark):
    obs.disable_profiler()

    def loop():
        for _ in range(N):
            _prof_instrumented()

    benchmark(loop)
    per_call_s = benchmark.stats.stats.mean / N
    emit_json(
        "obs_overhead_prof_disabled",
        {"per_call_s": [per_call_s]},
        meta={"calls_per_round": N, "mode": "prof_disabled"},
        seed=0,
    )
    # One global read, one `is None` check, a shared probe's CM protocol.
    assert per_call_s < 5e-6, f"disabled frame cost {per_call_s * 1e9:.0f} ns/call"


def test_enabled_profiler_call_time(benchmark):
    profiler = obs.enable_profiler()

    def loop():
        for _ in range(N):
            _prof_instrumented()

    benchmark(loop)
    obs.disable_profiler()
    per_call_s = benchmark.stats.stats.mean / N
    assert profiler.center_stats(), "enabled profiler recorded nothing"
    emit_json(
        "obs_overhead_prof_enabled",
        {"per_call_s": [per_call_s]},
        meta={"calls_per_round": N, "mode": "prof_enabled"},
        seed=0,
    )
    # An enabled frame does real work (two clock reads, a contextvar
    # set/reset, one locked dict update); it must stay cheap relative to
    # the cheapest instrumented operation (a ~µs hash call).
    assert per_call_s < 1e-4


def test_combined_artifact_written():
    """Fold the per-mode results into one ``BENCH_obs_overhead.json`` so
    the obs layer's perf trajectory is tracked as a single artifact.

    Runs after the two benchmark tests above (pytest preserves definition
    order), reading the files they just emitted.
    """
    import json

    from repro.bench.report import results_dir

    series = {}
    modes = ("disabled", "enabled", "prof_disabled", "prof_enabled")
    for mode in modes:
        path = results_dir() / f"BENCH_obs_overhead_{mode}.json"
        doc = json.loads(path.read_text())
        series[f"{mode}_per_call_s"] = doc["series"]["per_call_s"]["values"]
    out = emit_json(
        "obs_overhead",
        series,
        meta={"calls_per_round": N, "modes": list(modes)},
        seed=0,
    )
    assert out.exists()
