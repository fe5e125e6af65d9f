"""repro.obs — end-to-end tracing and unified metrics for the pipeline.

The observability layer the paper's testbed gets from Grafana + Hyperledger
Explorer, built in:

* **Tracing** (:mod:`repro.obs.probe`, :mod:`repro.obs.tracer`): nested,
  contextvars-propagated spans over the full Figure-1 pipeline — client
  submit/retrieve, endorsement, BFT ordering, validate/commit, IPFS,
  query. A site opens one probe: a span, a span that is also a cost
  center, or a center-only frame. Opt-in via :func:`enable` / scoped
  :func:`enabled`; with nothing installed a site costs one global read.
* **Metrics** (:mod:`repro.obs.metrics`): process-wide
  :class:`MetricsRegistry` with *labeled* counters/gauges/histograms and
  Prometheus text exposition.
* **Exporters** (:mod:`repro.obs.export`): Prometheus text, a JSON
  metrics snapshot, and the Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto — one process row per node, one lane per
  trace within it.
* **Breakdown** (:mod:`repro.obs.breakdown`): :func:`pipeline_breakdown`
  reproduces the paper's per-stage storage/retrieval latency decomposition
  (Figs. 5–6) from real spans, with per-stage cost-center rows and explicit
  ``other`` residuals when the profiler ran alongside the tracer;
  :func:`invoke_coverage` is the same sum over ``fabric.invoke``.
* **Profiler** (:mod:`repro.obs.prof`): deterministic cost-center profiler
  over the same probes — :func:`profiled` frames, and spans that name a
  center — with exact inclusive/exclusive time and bytes, kept per node
  and on the span that holds them, and a seeded-run
  :meth:`Profiler.fingerprint`. Opt-in via :func:`enable_profiler` /
  scoped :func:`profiling`.
* **Critical path** (:mod:`repro.obs.critpath`): with trace contexts
  propagated across :mod:`repro.net` messages, :func:`critical_path`
  extracts the longest dependency chain of a committed tx across client,
  peers, orderer, and validators, attributing wall time to
  ``{stage, node, msg_kind}``.

One attribution rule ties these together: a span's node
(:attr:`Span.node`) is resolved once, on the span, and the profiler, the
critical path and the Chrome trace all read it.
* **Bench trends** (:mod:`repro.obs.benchtrend`): the standardized BENCH
  JSON envelope (schema version, seed, config fingerprint) and the
  direction-aware diffing behind ``repro bench-diff``.
* **Explorer** (:mod:`repro.obs.explorer`): the Hyperledger-Explorer half —
  :class:`LedgerExplorer` browses blocks/txs, reconstructs provenance
  trails from the ledger, charts trust timelines, and runs the full
  on-chain + off-chain integrity audit.
* **Health** (:mod:`repro.obs.health`): :class:`HealthMonitor` scores every
  component (peers, orderer, validators, IPFS, DHT, breakers) and computes
  rolling-window SLIs into a typed :class:`HealthReport`.
* **Alerts** (:mod:`repro.obs.alerts`): declarative :class:`AlertRule`
  evaluation with firing/resolved lifecycle, an auditable alert log, and
  deterministic fingerprints under seeded chaos.

Quickstart::

    from repro import obs

    tracer = obs.enable(registry=obs.get_registry())
    ...  # run any Framework/Client workload
    print(obs.render_breakdown(obs.pipeline_breakdown(tracer)))
    obs.write_chrome_trace("trace.json", tracer)
    print(obs.render_prometheus())
    obs.disable()
"""

from repro.obs.breakdown import (
    PipelineBreakdown,
    StageTime,
    invoke_coverage,
    pipeline_breakdown,
    render_breakdown,
)
from repro.obs.export import (
    chrome_trace,
    metrics_json,
    render_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    get_registry,
    set_registry,
)
from repro.obs.prof import (
    CenterStat,
    ProfileReport,
    Profiler,
    disable_profiler,
    enable_profiler,
    get_profiler,
    profiled,
    profiling,
    set_profiler,
)
from repro.obs.probe import NOOP_SPAN, NoopSpan, Span, SpanContext
from repro.obs.tracer import (
    LATENCY_BUCKETS,
    Tracer,
    current_context,
    current_span,
    disable,
    enable,
    enabled,
    get_tracer,
    set_tracer,
    span,
)

# Explorer/health/alerts sit *above* the layers they observe (fabric,
# consensus, resilience), while those layers import repro.obs for spans and
# metrics — eager imports here would cycle. PEP 562 lazy attributes break
# the loop: the submodules load on first attribute access, by which point
# the lower layers are fully initialized.
_LAZY_SUBMODULE = {
    name: f"repro.obs.{mod}"
    for mod, names in {
        "alerts": (
            "AlertEngine",
            "AlertEvent",
            "AlertRule",
            "ChaosAlertProbe",
            "EXPECTED_ALERTS",
            "standard_rules",
        ),
        "explorer": ("AuditFinding", "AuditReport", "LedgerExplorer"),
        "critpath": ("CritSegment", "CriticalPath", "critical_path"),
        "benchtrend": (
            "DiffReport",
            "MetricDelta",
            "classify_metric",
            "compare_dirs",
            "config_fingerprint",
            "diff_docs",
            "load_bench",
            "make_envelope",
        ),
        "health": (
            "ComponentHealth",
            "HealthMonitor",
            "HealthReport",
            "HealthStatus",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module_name = _LAZY_SUBMODULE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "AuditFinding",
    "AuditReport",
    "ChaosAlertProbe",
    "ComponentHealth",
    "EXPECTED_ALERTS",
    "HealthMonitor",
    "HealthReport",
    "HealthStatus",
    "LedgerExplorer",
    "standard_rules",
    "CritSegment",
    "CriticalPath",
    "critical_path",
    "DiffReport",
    "MetricDelta",
    "classify_metric",
    "compare_dirs",
    "config_fingerprint",
    "diff_docs",
    "load_bench",
    "make_envelope",
    "PipelineBreakdown",
    "StageTime",
    "invoke_coverage",
    "pipeline_breakdown",
    "render_breakdown",
    "chrome_trace",
    "metrics_json",
    "render_prometheus",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "get_registry",
    "set_registry",
    "CenterStat",
    "ProfileReport",
    "Profiler",
    "disable_profiler",
    "enable_profiler",
    "get_profiler",
    "profiled",
    "profiling",
    "set_profiler",
    "NOOP_SPAN",
    "NoopSpan",
    "Span",
    "SpanContext",
    "LATENCY_BUCKETS",
    "Tracer",
    "current_context",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "set_tracer",
    "span",
]
