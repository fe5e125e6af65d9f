"""Query planner: choose the access path for a query's metadata half.

The peers' block-incremental authenticated index (:mod:`repro.index`) is the
one secondary index. The planner inspects the query's top-level conjuncts
for a predicate it can serve — equality on source, camera, vehicle class or
violation type, or a closed time window — and emits an :class:`IndexRoute`
for it, keeping the whole filter as a residual (the index narrows the
candidate set; the residual guarantees correctness). A plan with no route
is a full scan of the ``data:`` records.

A ``WHERE`` of numeric ``<`` / ``<=`` / ``>`` / ``>=`` timestamp bounds only
keeps its tightest two as the plan's ``window``, which the index answers exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    # When the WHERE is nothing but time bounds, its tightest two as
    # ``lookup_time_range(lower, upper, lower_closed, upper_closed)`` takes
    # them: that lookup is the answer, and the residual need not run.
    window: tuple = ()

    def explain(self) -> str:
        if self.index_route is None:
            return "FULL SCAN data:* -> filter"
        return f"INDEX {self.index_route.describe()} -> {'exact' if self.window else 'filter'}"


# field -> (preference rank, posting dimension) in the peers' authenticated
# index. The most selective index first: source/camera pinpoint one device;
# violation type and vehicle class are broader; a time window broader still.
_INDEX_DIMS = {
    "source_id": (0, "source"),
    "camera_id": (1, "camera"),
    "metadata.camera_id": (2, "camera"),
    "violation_type": (3, "violation"),
    "vehicle_class": (4, "class"),
}

_TIME_FIELD = "metadata.timestamp"


def plan_query(query: Query) -> Plan:
    """The query's access path, chosen in one pass over its conjuncts: the
    best-ranked equality (an ``=``, or a one-value ``IN``) on an indexed
    field, else the window its numeric timestamp bounds close."""
    where = query.where
    parts = conjuncts(where)
    equalities = {}  # (rank, dim) -> the value its first equality binds
    lower = upper = None
    lower_closed = upper_closed = True  # of the tightest bound on each side
    window = True  # every conjunct is a numeric time bound
    for part in parts:
        cls = part.__class__
        if cls is InSet and len(part.values) == 1 and part.field in _INDEX_DIMS:
            equalities.setdefault(_INDEX_DIMS[part.field], part.values[0])
        if cls is not Compare:
            window = False
            continue
        field, op, value = part.field, part.op, part.value
        if op == "=" and field in _INDEX_DIMS:
            equalities.setdefault(_INDEX_DIMS[field], value)
        elif field != _TIME_FIELD or not isinstance(value, (int, float)):
            window = False
        elif op == ">" or op == ">=":
            # On a tie the exclusive bound is the tighter one.
            if lower is None or value > lower or (value == lower and op == ">"):
                lower, lower_closed = value, op == ">="
        elif op == "<" or op == "<=":
            if upper is None or value < upper or (value == upper and op == "<"):
                upper, upper_closed = value, op == "<="
        else:  # "=" pins both edges; "!=" bounds nothing
            window = False
            if op == "=":
                lower = upper = value
    if equalities:
        best = min(equalities)
        route = IndexRoute(dim=best[1], value=str(equalities[best]))
        return Plan(residual=where, index_route=route)
    if lower is None or upper is None:
        return Plan(residual=where)  # half-open ranges would scan unbounded buckets
    # The route covers [lower, upper); widen the upper edge to the next
    # float so "<= t" and "= t" include t itself (a fixed epsilon is
    # absorbed by any epoch-scale t). The lower edge stays as written.
    route = IndexRoute(
        dim="time", time_range=(lower, math.nextafter(float(upper), math.inf))
    )
    if not window:
        return Plan(where, route)
    return Plan(where, route, window=(lower, upper, lower_closed, upper_closed))
