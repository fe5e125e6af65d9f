"""Hybrid query engine: parse → plan (index selection) → execute across the
blockchain (metadata) and IPFS (raw data) with integrity verification."""

from repro.query.ast import (
    And,
    Compare,
    Expr,
    InSet,
    Not,
    Or,
    Query,
    TrueExpr,
    conjuncts,
    get_path,
)
from repro.query.aggregate import (
    Avg,
    Count,
    Max,
    Metric,
    Min,
    Std,
    Sum,
    aggregate,
    explode,
    time_series,
)
from repro.query.executor import QueryEngine, QueryRow, QueryStats, VerifiedAnswer
from repro.query.parser import parse_query
from repro.query.planner import IndexRoute, Plan, plan_query

__all__ = [
    "And",
    "Compare",
    "Expr",
    "InSet",
    "Not",
    "Or",
    "Query",
    "TrueExpr",
    "conjuncts",
    "get_path",
    "Avg",
    "Count",
    "Max",
    "Metric",
    "Min",
    "Std",
    "Sum",
    "aggregate",
    "explode",
    "time_series",
    "QueryEngine",
    "QueryRow",
    "QueryStats",
    "VerifiedAnswer",
    "parse_query",
    "IndexRoute",
    "Plan",
    "plan_query",
]
