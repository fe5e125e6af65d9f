"""Per-stage latency decomposition: the paper's Figures 5 and 6 from spans.

The paper reports storage time (Fig. 5) and retrieval time (Fig. 6) broken
into IPFS work versus blockchain overhead. :func:`pipeline_breakdown`
reproduces that decomposition from *real* spans of a traced run: every
outermost ``client.submit`` span becomes a storage sample and every
outermost ``client.retrieve`` / ``query.run`` span a retrieval sample
(outermost: a root, or under spans such as ``chaos.scenario`` that belong
to no pipeline), and each sample's wall time is attributed stage by
stage using **exclusive** span times (a span's duration minus its
children's), so nested instrumentation never double-counts and the stage
totals sum back to the measured
end-to-end wall time, minus only genuinely uninstrumented gaps — and those
gaps are no longer silent: any wall time the stages don't explain shows up
as an explicit ``other`` row rather than only depressing the coverage
figure.

When the cost-center profiler (:mod:`repro.obs.prof`) ran alongside the
tracer, each stage additionally decomposes into the cost centers recorded
inside its spans (``crypto.sign``, ``serialize.canonical_json``, ...),
with a per-stage ``other`` sub-row for whatever the centers leave
unexplained. :func:`invoke_coverage` is the same sum over ``fabric.invoke``
roots: both go through :func:`centers_under`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.span import Span
from repro.obs.tracer import Tracer, get_tracer

# Sample span name -> which pipeline the sample belongs to.
ROOTS = {
    "client.submit": "storage",
    "ingest.batch": "storage",
    "client.retrieve": "retrieval",
    "query.run": "retrieval",
}

# Span name -> reported stage. Unmapped spans report under their own name,
# so nothing silently disappears from the decomposition.
STAGE_LABELS = {
    # storage path (paper Fig. 5 / Figure 1 steps ①–⑦)
    "submit.sign": "data hash",
    "submit.admission": "trust admission",
    "ipfs.add": "ipfs add",
    "ipfs.add_bytes": "ipfs chunk+dag",
    "fabric.invoke": "tx assembly",
    "fabric.endorse": "endorse",
    "fabric.peer.endorse": "endorse",
    "fabric.order": "order",
    "consensus.round": "consensus (bft)",
    "consensus.run": "consensus (bft)",
    "consensus.validate": "consensus (bft)",
    "fabric.deliver": "deliver",
    "fabric.peer.commit": "validate+commit",
    "submit.trust_update": "trust update",
    "trust.observe_validators": "trust update",
    "ingest.item": "ingest prepare",
    "ingest.store": "ipfs add",
    "ingest.trust_update": "trust update",
    "ipfs.add_many": "ipfs add",
    "fabric.flush": "order",
    # retrieval path (paper Fig. 6 / Figure 1 steps Ⓐ–Ⓓ)
    "retrieve.acl": "acl check",
    "query.plan": "plan",
    "query.get": "query route",
    "query.chain_read": "on-chain read",
    "query.state_read": "on-chain read",
    "fabric.query": "on-chain read",
    "query.fetch": "off-chain fetch",
    "ipfs.cat": "off-chain fetch",
    "ipfs.dht.providers": "dht resolve",
    "ipfs.node.cat": "off-chain fetch",
    "retrieve.provenance": "provenance",
    # resilience (both paths; cheap and usually absent when healthy)
    "resilience.retry": "retry backoff",
    "ipfs.quarantine": "quarantine",
    # network (delivery spans opened by SimNetwork when tracing is on)
    "net.deliver": "network deliver",
}

UNATTRIBUTED = "(uninstrumented)"

# Explicit residual label, at both levels: a pipeline-level ``other`` stage
# (wall time no stage explains) and a per-stage ``other`` center (stage time
# no cost center explains).
OTHER = "other"

# Residuals below this are timer noise, not a missing instrument.
_RESIDUAL_EPS_S = 1e-9


@dataclass(frozen=True)
class CenterTime:
    """One cost center's contribution within a stage (calls, seconds)."""

    center: str
    calls: int
    total_s: float


@dataclass(frozen=True)
class StageTime:
    stage: str
    count: int
    total_s: float
    share: float  # fraction of the pipeline's wall time
    # Cost-center decomposition of this stage (empty without a profiler);
    # includes a trailing ``other`` row when the centers leave a residual.
    centers: tuple[CenterTime, ...] = ()

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass(frozen=True)
class PipelineBreakdown:
    pipeline: str            # "storage" | "retrieval"
    samples: int             # number of sample spans aggregated
    wall_s: float            # summed end-to-end wall time of those samples
    stages: tuple[StageTime, ...]

    @property
    def attributed_s(self) -> float:
        return sum(
            s.total_s for s in self.stages if s.stage not in (UNATTRIBUTED, OTHER)
        )

    @property
    def coverage(self) -> float:
        """Fraction of wall time explained by named stages."""
        return self.attributed_s / self.wall_s if self.wall_s > 0 else 0.0


def _exclusive_s(span: Span, children: list[Span]) -> float:
    return max(0.0, span.duration_s - sum(c.duration_s for c in children))


def _center_rows(
    centers: dict[str, list] | None, stage_total_s: float
) -> tuple[CenterTime, ...]:
    """Sorted center rows for one stage, plus an ``other`` residual row."""
    if not centers:
        return ()
    rows = [CenterTime(center=c, calls=acc[0], total_s=acc[1]) for c, acc in centers.items()]
    rows.sort(key=lambda r: (-r.total_s, r.center))
    residual = stage_total_s - sum(r.total_s for r in rows)
    if residual > _RESIDUAL_EPS_S:
        rows.append(CenterTime(center=OTHER, calls=0, total_s=residual))
    return tuple(rows)


def _span_centers(profiler) -> dict[str, dict[str, tuple[int, float]]]:
    if profiler is None:
        from repro.obs.prof import get_profiler

        profiler = get_profiler()
    return profiler.span_center_seconds() if profiler is not None else {}


def centers_under(
    tracer: Tracer,
    root: Span,
    span_centers: dict[str, dict[str, tuple[int, float]]],
    into: dict[str, dict[str, list]],
    label: Callable[[Span], str] = lambda span: "",
) -> None:
    """Add the cost-center time recorded in ``root`` and its descendants to
    ``into``, as ``label(span) -> center -> [calls, seconds]``.

    The walk is the *execution* view, so remote work (consensus rounds,
    block delivery) counts under the frame that ran it.
    """
    for span in [root, *tracer.descendants(root, view="exec")]:
        centers = span_centers.get(span.span_id)
        if not centers:
            continue
        per_label = into.setdefault(label(span), {})
        for center, (calls, seconds) in centers.items():
            cacc = per_label.setdefault(center, [0, 0.0])
            cacc[0] += calls
            cacc[1] += seconds


def _samples(tracer: Tracer) -> list[Span]:
    """The outermost spans named in :data:`ROOTS`, in start order."""
    found: list[Span] = []
    frontier = tracer.roots()
    while frontier:
        span = frontier.pop()
        if span.name in ROOTS:
            found.append(span)
        else:
            frontier.extend(tracer.children(span))
    return sorted(found, key=lambda s: s.start_s)


def invoke_coverage(
    tracer: Tracer | None, profiler=None, root_name: str = "fabric.invoke"
) -> float:
    """Fraction of ``root_name`` wall time explained by cost centers.

    Sums the center seconds under every finished ``root_name`` span and
    divides by their total wall time. This is the ≥ 0.9 acceptance number
    ``repro prof --min-coverage`` gates on.
    """
    span_centers = _span_centers(profiler)
    if tracer is None or not span_centers:
        return 0.0
    wall = 0.0
    acc: dict[str, dict[str, list]] = {}
    for root in tracer.spans(root_name):
        if root.finished:
            wall += root.duration_s
            centers_under(tracer, root, span_centers, acc)
    attributed = sum(seconds for _calls, seconds in acc.get("", {}).values())
    return attributed / wall if wall > 0.0 else 0.0


def pipeline_breakdown(
    tracer: Tracer | None = None, profiler=None
) -> dict[str, PipelineBreakdown]:
    """Aggregate a traced run into per-stage storage/retrieval breakdowns.

    Returns ``{"storage": ..., "retrieval": ...}`` (keys present only when
    the trace contains such samples). When a cost-center profiler is active
    (or passed explicitly), every stage also carries the cost centers
    recorded inside its spans, and residuals surface as ``other`` rows at
    both the stage and the pipeline level.
    """
    tracer = tracer or get_tracer()
    if tracer is None:
        return {}
    span_centers = _span_centers(profiler)
    acc: dict[str, dict[str, list[float]]] = {}
    # pipeline -> stage -> center -> [calls, seconds]
    centers_acc: dict[str, dict[str, dict[str, list]]] = {}
    wall: dict[str, float] = {}
    samples: dict[str, int] = {}
    for root in _samples(tracer):
        pipeline = ROOTS[root.name]
        if not root.finished:
            continue
        wall[pipeline] = wall.get(pipeline, 0.0) + root.duration_s
        samples[pipeline] = samples.get(pipeline, 0) + 1
        stages = acc.setdefault(pipeline, {})
        pcenters = centers_acc.setdefault(pipeline, {})

        def stage_of(span: Span, root: Span = root) -> str:
            return UNATTRIBUTED if span is root else STAGE_LABELS.get(span.name, span.name)

        centers_under(tracer, root, span_centers, pcenters, stage_of)
        # Walk the *execution* view: remote spans (message deliveries) nest
        # under the frame that ran them, not under their causal sender —
        # the view where child intervals sit inside the parent's, which
        # exclusive-time accounting needs to partition wall time without
        # double-booking seconds.
        for span in [root, *tracer.descendants(root, view="exec")]:
            exclusive = _exclusive_s(span, tracer.children(span, view="exec"))
            if exclusive > 0.0:
                stages.setdefault(stage_of(span), []).append(exclusive)
    out: dict[str, PipelineBreakdown] = {}
    for pipeline, stages in acc.items():
        pcenters = centers_acc.get(pipeline, {})
        rows = [
            StageTime(
                stage=stage,
                count=len(times),
                total_s=sum(times),
                share=(sum(times) / wall[pipeline]) if wall[pipeline] > 0 else 0.0,
                centers=_center_rows(pcenters.get(stage), sum(times)),
            )
            for stage, times in stages.items()
        ]
        # A stage can carry centers without ever having positive exclusive
        # time of its own (all its wall time sat in child spans); keep it
        # visible rather than dropping the centers on the floor.
        for stage, cmap in pcenters.items():
            if stage not in stages:
                rows.append(StageTime(stage, 0, 0.0, 0.0, centers=_center_rows(cmap, 0.0)))
        rows.sort(key=lambda r: r.total_s, reverse=True)
        # Wall time that no stage explains (non-nesting spans, clamped
        # exclusives): an explicit ``other`` stage instead of a silent
        # coverage shortfall.
        gap = wall[pipeline] - sum(r.total_s for r in rows)
        if gap > _RESIDUAL_EPS_S:
            rows.append(
                StageTime(
                    stage=OTHER,
                    count=0,
                    total_s=gap,
                    share=(gap / wall[pipeline]) if wall[pipeline] > 0 else 0.0,
                )
            )
        out[pipeline] = PipelineBreakdown(
            pipeline=pipeline,
            samples=samples[pipeline],
            wall_s=wall[pipeline],
            stages=tuple(rows),
        )
    return out


def render_breakdown(breakdowns: dict[str, PipelineBreakdown]) -> str:
    """Fixed-width tables, one per pipeline (the Fig. 5/6 view)."""
    from repro.bench.report import format_table

    blocks: list[str] = []
    for pipeline in ("storage", "retrieval"):
        bd = breakdowns.get(pipeline)
        if bd is None:
            continue
        fig = "Fig. 5" if pipeline == "storage" else "Fig. 6"
        rows = []
        for s in bd.stages:
            rows.append(
                [s.stage, s.count, f"{s.total_s * 1e3:.3f}", f"{s.mean_s * 1e3:.3f}",
                 f"{s.share * 100:.1f}%"]
            )
            for c in s.centers:
                c_share = (c.total_s / bd.wall_s * 100) if bd.wall_s > 0 else 0.0
                rows.append(
                    [f"  . {c.center}", c.calls or "", f"{c.total_s * 1e3:.3f}", "",
                     f"{c_share:.1f}%"]
                )
        rows.append(["TOTAL (wall)", bd.samples, f"{bd.wall_s * 1e3:.3f}", "", "100.0%"])
        blocks.append(
            format_table(
                f"{pipeline} breakdown ({fig}): {bd.samples} sample(s), "
                f"{bd.coverage * 100:.1f}% attributed",
                ["stage", "n", "total ms", "mean ms", "share"],
                rows,
            )
        )
    return "\n\n".join(blocks)
