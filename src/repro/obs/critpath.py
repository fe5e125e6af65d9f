"""Critical-path analysis over the cross-node span DAG of one transaction.

With trace-context propagation (PR 6), a committed transaction's spans form
one causal DAG spanning the client, the endorsing peers, the orderer, and
the BFT validators: message deliveries are *remote* children of the span
that sent the message, so PBFT rounds and block delivery hang off their
causal senders rather than off whatever ran the event loop.

:func:`critical_path` walks that DAG backwards from the end of the
transaction's root span and extracts the longest dependency chain: at every
point in time, exactly one span is "blamed" — the deepest causal frame that
was still running — so the resulting segments *partition* the end-to-end
wall time exactly. Each segment is attributed to ``{stage, node,
msg_kind}``, the attribution that explaining the ~4–5 ms fixed blockchain
overhead dominating Fig. 5 needs: not "consensus is slow" but
"prepare-message delivery on validator-2 accounts for X µs of the path".

A segment's node is its span's :attr:`~repro.obs.probe.Span.node`, the
value the profiler charges frames to and the Chrome trace
(:func:`repro.obs.export.chrome_trace`, one process row per node) lays out
by. ``repro prof --tx <txid>`` in the CLI prints the analysis and, with
``--out``, writes that trace for the transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ObservabilityError
from repro.obs.breakdown import STAGE_LABELS
from repro.obs.probe import Span
from repro.obs.tracer import Tracer, get_tracer

@dataclass(frozen=True)
class CritSegment:
    """One piece of the critical path: ``span`` was the blamed frame on
    ``[start_s, end_s)``."""

    span_name: str
    span_id: str
    stage: str
    node: str
    msg_kind: str  # message kind for net.deliver frames, "" otherwise
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "span_name": self.span_name,
            "span_id": self.span_id,
            "stage": self.stage,
            "node": self.node,
            "msg_kind": self.msg_kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class StageRow:
    """Aggregated path time for one ``{stage, node, msg_kind}`` bucket."""

    stage: str
    node: str
    msg_kind: str
    count: int
    total_s: float
    share: float  # of the end-to-end wall time


@dataclass(frozen=True)
class CriticalPath:
    tx_id: str
    trace_id: str
    root_name: str
    wall_s: float                     # end-to-end duration of the root span
    segments: tuple[CritSegment, ...]  # time-ordered, partition [root.start, root.end]
    nodes: tuple[str, ...]            # distinct nodes anywhere on the tx's DAG
    path_nodes: tuple[str, ...]       # distinct nodes on the critical path itself

    @property
    def attributed_s(self) -> float:
        return sum(seg.duration_s for seg in self.segments)

    def by_stage(self) -> list[StageRow]:
        """Path time grouped by ``{stage, node, msg_kind}``, largest first."""
        acc: dict[tuple[str, str, str], list[float]] = {}
        for seg in self.segments:
            acc.setdefault((seg.stage, seg.node, seg.msg_kind), []).append(seg.duration_s)
        rows = [
            StageRow(
                stage=stage,
                node=node,
                msg_kind=kind,
                count=len(times),
                total_s=sum(times),
                share=(sum(times) / self.wall_s) if self.wall_s > 0 else 0.0,
            )
            for (stage, node, kind), times in acc.items()
        ]
        rows.sort(key=lambda r: (-r.total_s, r.stage, r.node, r.msg_kind))
        return rows

    def to_dict(self) -> dict:
        return {
            "tx_id": self.tx_id,
            "trace_id": self.trace_id,
            "root_name": self.root_name,
            "wall_s": self.wall_s,
            "attributed_s": self.attributed_s,
            "nodes": list(self.nodes),
            "path_nodes": list(self.path_nodes),
            "segments": [seg.to_dict() for seg in self.segments],
            "by_stage": [
                {
                    "stage": r.stage, "node": r.node, "msg_kind": r.msg_kind,
                    "count": r.count, "total_s": r.total_s, "share": r.share,
                }
                for r in self.by_stage()
            ],
        }

    def render_lines(self) -> list[str]:
        from repro.bench.report import format_table

        header = (
            f"critical path of tx {self.tx_id[:16]}…  "
            f"({self.root_name}, {self.wall_s * 1e3:.3f} ms wall, "
            f"{len(self.segments)} segments)"
        )
        dag = (
            f"causal DAG spans {len(self.nodes)} node(s): {', '.join(self.nodes)}; "
            f"path visits {len(self.path_nodes)}: {', '.join(self.path_nodes)}"
        )
        rows = [
            [r.stage, r.node, r.msg_kind or "-", r.count,
             f"{r.total_s * 1e3:.3f}", f"{r.share * 100:.1f}%"]
            for r in self.by_stage()
        ]
        rows.append(
            ["TOTAL (wall)", "", "", len(self.segments),
             f"{self.attributed_s * 1e3:.3f}", "100.0%"]
        )
        table = format_table(
            "critical-path attribution by {stage, node, msg_kind}",
            ["stage", "node", "msg", "n", "total ms", "share"],
            rows,
        )
        return [header, dag, "", *table.splitlines()]


# ---------------------------------------------------------------------------
# DAG location + walk
# ---------------------------------------------------------------------------


def tx_anchor(tracer: Tracer, tx_id: str | None) -> Span:
    """The ``fabric.invoke`` span carrying ``tx_id`` (prefix match), or the
    latest one when ``tx_id`` is None/"latest"."""
    invokes = [s for s in tracer.finished if s.name == "fabric.invoke" and s.finished]
    if not invokes:
        raise ObservabilityError("no fabric.invoke spans in the trace — nothing committed?")
    if tx_id is None or tx_id == "latest":
        return invokes[-1]
    matches = [s for s in invokes if str(s.attrs.get("tx_id", "")).startswith(tx_id)]
    if not matches:
        known = ", ".join(str(s.attrs.get("tx_id", "?"))[:16] for s in invokes[-5:])
        raise ObservabilityError(
            f"no committed tx matching {tx_id!r}; recent tx ids: {known}"
        )
    if len(matches) > 1:
        raise ObservabilityError(f"tx id prefix {tx_id!r} is ambiguous ({len(matches)} matches)")
    return matches[0]


def _trace_root(anchor: Span, by_id: dict[str, Span]) -> Span:
    """Walk to the topmost *retained* ancestor of the anchor span."""
    cur = anchor
    while cur.parent_id is not None and cur.parent_id in by_id:
        cur = by_id[cur.parent_id]
    return cur


def _segment(span: Span, lo: float, hi: float) -> CritSegment:
    return CritSegment(
        span_name=span.name,
        span_id=span.span_id,
        stage=STAGE_LABELS.get(span.name, span.name),
        node=span.node,
        msg_kind=str(span.attrs.get("kind", "")) if span.name == "net.deliver" else "",
        start_s=lo,
        end_s=hi,
    )


def _walk(
    span: Span,
    lo: float,
    hi: float,
    children: dict[str, list[Span]],
    segs: list[CritSegment],
) -> None:
    """Blame ``span`` for ``[lo, hi]`` except where a causal child was the
    last thing to finish — recurse into that child, then keep scanning
    earlier. The emitted segments partition ``[lo, hi]`` exactly."""
    t = hi
    kids = sorted(
        (c for c in children.get(span.span_id, ()) if lo < c.end_s <= t),
        key=lambda c: (c.end_s, c.start_s, c.span_id),
    )
    while kids and t > lo:
        last = kids.pop()
        if last.end_s < t:
            segs.append(_segment(span, last.end_s, t))
        _walk(last, max(last.start_s, lo), last.end_s, children, segs)
        t = max(last.start_s, lo)
        kids = [c for c in kids if c.end_s <= t]
    if t > lo:
        segs.append(_segment(span, lo, t))


def critical_path(tracer: Tracer | None = None, tx_id: str | None = None) -> CriticalPath:
    """Extract the cross-node critical path of one committed transaction.

    ``tx_id`` selects the transaction (prefix match on the ``fabric.invoke``
    span's ``tx_id`` attribute; None or ``"latest"`` takes the most recent).
    The walk runs over the anchor's whole trace — the client root when
    retained — and its segments partition the root's duration, so the
    attribution sums to the end-to-end time by construction.
    """
    tracer = tracer or get_tracer()
    if tracer is None:
        raise ObservabilityError("tracing is not enabled — no spans to analyze")
    anchor = tx_anchor(tracer, tx_id)
    trace_spans = [
        s for s in tracer.finished if s.trace_id == anchor.trace_id and s.finished
    ]
    by_id = {s.span_id: s for s in trace_spans}
    root = _trace_root(anchor, by_id)
    children: dict[str, list[Span]] = {}
    for s in trace_spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    segs: list[CritSegment] = []
    _walk(root, root.start_s, root.end_s, children, segs)
    segs.sort(key=lambda seg: seg.start_s)
    nodes = sorted({s.node for s in trace_spans})
    path_nodes = sorted({seg.node for seg in segs})
    return CriticalPath(
        tx_id=str(anchor.attrs.get("tx_id", "")),
        trace_id=root.trace_id,
        root_name=root.name,
        wall_s=root.duration_s,
        segments=tuple(segs),
        nodes=tuple(nodes),
        path_nodes=tuple(path_nodes),
    )
