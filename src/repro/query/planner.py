"""Query planner: choose the access path for a query's metadata half.

The peers' block-incremental authenticated index (:mod:`repro.index`) is the
one secondary index. The planner inspects the query's top-level conjuncts
for a predicate it can serve — equality on source, camera, vehicle class or
violation type, or a closed time window — and emits an :class:`IndexRoute`
for it, keeping the whole filter as a residual (the index narrows the
candidate set; the residual guarantees correctness). A plan with no route
is a full scan of the ``data:`` records.

When the residual is nothing but the routed time window (numeric ``<`` /
``<=`` / ``>`` / ``>=`` bounds), the plan keeps those bounds as its
``window``: a bucket they wholly cover (:meth:`Plan.covers`) needs no filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.index.secondary import TIME_BUCKET_S
from repro.query.ast import Compare, Expr, InSet, Query, conjuncts


@dataclass(frozen=True)
class IndexRoute:
    """One posting lookup in the authenticated secondary index.

    Equality predicates carry ``(dim, value)``; time-window predicates
    carry ``time_range`` (``[lower, upper)``, the upper edge widened so an
    inclusive ``<= t`` / ``= t`` keeps ``t``).
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
    residual: Expr
    index_route: IndexRoute | None = None
    # The residual's conjuncts when they are exactly the routed time window.
    window: tuple[Compare, ...] = ()

    def covers(self, bucket: int) -> bool:
        """Does every time in ``bucket`` satisfy the window? Checked on its edges."""
        start = bucket * TIME_BUCKET_S
        end = start + TIME_BUCKET_S
        return bool(self.window) and all(
            _BUCKET_WITHIN[part.op](start, end, part.value) for part in self.window
        )

    def explain(self) -> str:
        if self.index_route is None:
            return "FULL SCAN data:* -> filter"
        edges = " edge buckets" if self.window else ""
        return f"INDEX {self.index_route.describe()} -> filter{edges}"


# field -> posting dimension in the peers' authenticated index.
_INDEX_DIMS = {
    "source_id": "source",
    "camera_id": "camera",
    "metadata.camera_id": "camera",
    "violation_type": "violation",
    "vehicle_class": "class",
}

_TIME_FIELD = "metadata.timestamp"

# op -> does a bound ``t op value`` hold for every t in [start, end)?
_BUCKET_WITHIN = {
    ">": lambda start, end, value: start > value,
    ">=": lambda start, end, value: start >= value,
    "<": lambda start, end, value: end <= value,
    "<=": lambda start, end, value: end <= value,
}


def plan_query(query: Query) -> Plan:
    parts = conjuncts(query.where)
    # Preference order: the most selective index first — source/camera
    # pinpoint one device; violation type and vehicle class are broader;
    # a time window broader still.
    for field in _INDEX_DIMS:
        value = _equality_value(parts, field)
        if value is not None:
            route = IndexRoute(dim=_INDEX_DIMS[field], value=value)
            return Plan(residual=query.where, index_route=route)
    route = _time_route(parts)
    bounds = route and all(_is_time_bound(p) and p.op in _BUCKET_WITHIN for p in parts)
    return Plan(query.where, route, window=tuple(parts) if bounds else ())


def _equality_value(parts: list[Expr], field: str) -> str | None:
    for part in parts:
        if isinstance(part, Compare) and part.field == field and part.op == "=":
            return str(part.value)
        if isinstance(part, InSet) and part.field == field and len(part.values) == 1:
            return str(part.values[0])
    return None


def _is_time_bound(part: Expr) -> bool:
    if not isinstance(part, Compare) or part.field != _TIME_FIELD:
        return False
    return isinstance(part.value, (int, float))


def _time_route(parts: list[Expr]) -> IndexRoute | None:
    lower, upper = None, None
    for part in parts:
        if not _is_time_bound(part):
            continue
        if part.op in (">", ">="):
            lower = part.value if lower is None else max(lower, part.value)
        elif part.op in ("<", "<="):
            upper = part.value if upper is None else min(upper, part.value)
        elif part.op == "=":
            lower = upper = part.value
    if lower is None or upper is None:
        return None  # half-open ranges would scan unbounded buckets
    # The route covers [lower, upper); widen the upper edge to the next
    # float so "<= t" and "= t" include t itself (a fixed epsilon is
    # absorbed by any epoch-scale t).
    return IndexRoute(
        dim="time",
        time_range=(float(lower), math.nextafter(float(upper), math.inf)),
    )
