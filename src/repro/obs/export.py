"""Exporters: Prometheus text, JSON snapshots, and Chrome trace_event.

Three formats, one per audience:

* :func:`render_prometheus` — scrape-style text for dashboards (the
  Grafana surface of the paper's testbed);
* :func:`metrics_json` — a machine-readable metrics snapshot for benches
  and cross-PR trend tracking;
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format, so a stored/retrieved item's journey through
  endorse → order → validate → commit → IPFS renders node by node in
  ``chrome://tracing`` or https://ui.perfetto.dev. It is the one trace
  writer: ``repro prof --out`` writes it, limited to one transaction's
  trace with ``--tx``.
"""

from __future__ import annotations

import json

from repro.obs.metrics import (  # noqa: F401  (escape re-exported: it is part of the exposition contract)
    MetricsRegistry,
    escape_label_value,
    get_registry,
)
from repro.obs.tracer import Tracer, get_tracer


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Prometheus text exposition of the registry.

    Label values pass through :func:`escape_label_value`, so backslashes,
    double quotes, and newlines in dynamic labels (peer names, error
    strings) cannot corrupt the line-oriented format.
    """
    return (registry or get_registry()).render()


def metrics_json(registry: MetricsRegistry | None = None, indent: int | None = None) -> str:
    return json.dumps((registry or get_registry()).snapshot(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def chrome_trace(tracer: Tracer | None = None, trace_id: str | None = None) -> dict:
    """The ``chrome://tracing`` / Perfetto JSON object for a tracer's spans.

    One *process* row per node (a ``process_name`` metadata record naming
    it — client, peers, orderer, validators) and, within a node, one lane
    per trace, so a transaction's cross-node hops render as a swimlane
    diagram and concurrent pipelines side by side. Spans are Chrome
    "complete" (``ph: "X"``) events in microseconds from the earliest span,
    with attributes and lineage in ``args``. ``trace_id`` restricts the
    export to one trace.
    """
    tracer = tracer or get_tracer()
    spans = [
        s for s in (tracer.finished if tracer is not None else ())
        if s.finished and (trace_id is None or s.trace_id == trace_id)
    ]
    pids = {node: pid for pid, node in enumerate(sorted({s.node for s in spans}), 1)}
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": node}}
        for node, pid in pids.items()
    ]
    t0 = min((s.start_s for s in spans), default=0.0)
    lanes: dict[str, dict[str, int]] = {}
    for span in sorted(spans, key=lambda s: s.start_s):
        node_lanes = lanes.setdefault(span.node, {})
        args = {str(k): v for k, v in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.remote:
            args["remote"] = True
        if span.status != "ok":
            args["error"] = span.error
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_s - t0) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": pids[span.node],
                "tid": node_lanes.setdefault(span.trace_id, len(node_lanes) + 1),
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(
    path: str,
    tracer: Tracer | None = None,
    trace_id: str | None = None,
    indent: int | None = None,
) -> str:
    text = json.dumps(chrome_trace(tracer, trace_id), indent=indent)
    with open(path, "w") as fh:
        fh.write(text)
    return path
