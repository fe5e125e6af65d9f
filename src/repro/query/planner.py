"""Query planner: choose the cheapest on-chain access path.

The Data Upload chaincode maintains composite-key indexes by source,
camera, vehicle class, and time bucket. The planner inspects the query's
top-level conjuncts for a predicate one of those indexes can serve, emits
the corresponding chaincode call, and keeps the whole filter as a residual
(indexes narrow the candidate set; the residual guarantees correctness).
With no usable predicate it falls back to the full ``list_all`` scan.

When the same predicate is servable by the peers' block-incremental
authenticated index (:mod:`repro.index`), the plan additionally carries an
:class:`IndexRoute` — the executor prefers it (a direct posting lookup on
an in-sync peer, no chaincode scan) and falls back to the chaincode access
path when no peer serves the index at the snapshot height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.query.ast import Compare, Expr, InSet, Query, conjuncts


@dataclass(frozen=True)
class AccessPath:
    """One chaincode invocation that yields candidate records."""

    fn: str
    args: tuple[str, ...]
    index: str  # human-readable name for EXPLAIN-style output


@dataclass(frozen=True)
class IndexRoute:
    """One posting lookup in the authenticated secondary index.

    Equality predicates carry ``(dim, value)``; time-window predicates
    carry ``time_range`` (``[lower, upper)``, upper already widened the
    same way as the chaincode access path).
    """

    dim: str
    value: str = ""
    time_range: tuple[float, float] | None = None

    def describe(self) -> str:
        if self.time_range is not None:
            return f"{self.dim}[{self.time_range[0]}, {self.time_range[1]})"
        return f"{self.dim}={self.value}"


@dataclass(frozen=True)
class Plan:
    paths: tuple[AccessPath, ...]
    residual: Expr
    full_scan: bool
    index_route: IndexRoute | None = None

    def explain(self) -> str:
        if self.full_scan:
            return "FULL SCAN data:* -> filter"
        steps = ", ".join(f"{p.index}({', '.join(p.args)})" for p in self.paths)
        out = f"INDEX {steps} -> filter"
        if self.index_route is not None:
            out += f" [authenticated route: {self.index_route.describe()}]"
        return out


# field -> (index name, chaincode fn); equality predicates only.
_EQUALITY_INDEXES = {
    "source_id": ("by_source", "list_by_source"),
    "camera_id": ("by_camera", "list_by_camera"),
    "metadata.camera_id": ("by_camera", "list_by_camera"),
    "vehicle_class": ("by_class", "list_by_vehicle_class"),
    "violation_type": ("by_violation", "list_by_violation"),
}

# field -> posting dimension in the peers' authenticated index.
_INDEX_DIMS = {
    "source_id": "source",
    "camera_id": "camera",
    "metadata.camera_id": "camera",
    "vehicle_class": "class",
    "violation_type": "violation",
}

_TIME_FIELD = "metadata.timestamp"


def plan_query(query: Query) -> Plan:
    parts = conjuncts(query.where)

    # Preference order: the most selective index first — source/camera
    # pinpoint one device; vehicle class is broader; time range broader still.
    for field in ("source_id", "camera_id", "metadata.camera_id"):
        path = _equality_path(parts, field)
        if path is not None:
            return Plan(
                paths=(path,),
                residual=query.where,
                full_scan=False,
                index_route=IndexRoute(dim=_INDEX_DIMS[field], value=path.args[0]),
            )

    for field in ("violation_type", "vehicle_class"):
        path = _equality_path(parts, field)
        if path is not None:
            return Plan(
                paths=(path,),
                residual=query.where,
                full_scan=False,
                index_route=IndexRoute(dim=_INDEX_DIMS[field], value=path.args[0]),
            )

    time_path = _time_range_path(parts)
    if time_path is not None:
        return Plan(
            paths=(time_path,),
            residual=query.where,
            full_scan=False,
            index_route=IndexRoute(
                dim="time",
                time_range=(float(time_path.args[0]), float(time_path.args[1])),
            ),
        )

    return Plan(
        paths=(AccessPath(fn="list_all", args=(), index="full"),),
        residual=query.where,
        full_scan=True,
    )


def _equality_path(parts: list[Expr], field: str) -> AccessPath | None:
    index, fn = _EQUALITY_INDEXES[field]
    for part in parts:
        if isinstance(part, Compare) and part.field == field and part.op == "=":
            return AccessPath(fn=fn, args=(str(part.value),), index=index)
        if isinstance(part, InSet) and part.field == field and len(part.values) == 1:
            return AccessPath(fn=fn, args=(str(part.values[0]),), index=index)
    return None


def _time_range_path(parts: list[Expr]) -> AccessPath | None:
    lower, upper = None, None
    for part in parts:
        if not isinstance(part, Compare) or part.field != _TIME_FIELD:
            continue
        if not isinstance(part.value, (int, float)):
            continue
        if part.op in (">", ">="):
            lower = part.value if lower is None else max(lower, part.value)
        elif part.op in ("<", "<="):
            upper = part.value if upper is None else min(upper, part.value)
        elif part.op == "=":
            lower = upper = part.value
    if lower is None or upper is None:
        return None  # half-open ranges would scan unbounded buckets
    # list_by_time_range filters [start, end); widen the upper edge to the
    # next float so "<= t" and "= t" include t itself (a fixed epsilon is
    # absorbed by any epoch-scale t). repr round-trips it exactly.
    return AccessPath(
        fn="list_by_time_range",
        args=(str(float(lower)), str(math.nextafter(float(upper), math.inf))),
        index="by_time",
    )
