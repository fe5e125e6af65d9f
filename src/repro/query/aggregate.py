"""Aggregation over query results: the analyst's summary layer.

The paper's users — "law enforcement and analysts" — rarely want raw rows;
they want counts per camera, average confidence per vehicle class, traffic
volume over time. This module aggregates the record dictionaries the query
engine returns (group-by, count/avg/max, time-bucketed series),
including aggregation *over detections* (one record holds many) via the
``explode`` option.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import QueryError
from repro.query.ast import get_path


@dataclass(frozen=True)
class Metric:
    """One named aggregation over a field path (None path = row count)."""

    name: str
    kind: str  # count | avg | max
    path: str | None = None

    _KINDS = ("count", "avg", "max")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise QueryError(f"unknown metric kind {self.kind!r}")
        if self.kind != "count" and self.path is None:
            raise QueryError(f"metric {self.kind!r} needs a field path")

    def compute(self, rows: list[dict]) -> float | int:
        if self.kind == "count":
            return len(rows)
        values = [
            v
            for v in (get_path(r, self.path) for r in rows)  # type: ignore[arg-type]
            if isinstance(v, (int, float))
        ]
        if not values:
            return 0
        arr = np.asarray(values, dtype=float)
        return float(arr.mean() if self.kind == "avg" else arr.max())


def Count(name: str = "count") -> Metric:
    return Metric(name=name, kind="count")


def Avg(path: str, name: str | None = None) -> Metric:
    return Metric(name=name or f"avg({path})", kind="avg", path=path)


def Max(path: str, name: str | None = None) -> Metric:
    return Metric(name=name or f"max({path})", kind="max", path=path)



def explode(records: list[dict], path: str) -> list[dict]:
    """Flatten a list-valued field into one row per element.

    Each output row is the parent record plus the element's fields merged
    at the top level (element keys win). ``explode(rows,
    "metadata.detections")`` turns frame records into detection rows.
    """
    out: list[dict] = []
    for record in records:
        items = get_path(record, path)
        if not isinstance(items, list):
            continue
        for item in items:
            if isinstance(item, dict):
                merged = dict(record)
                merged.update(item)
                out.append(merged)
    return out


def aggregate(
    records: list[dict],
    metrics: list[Metric],
    group_by: str | None = None,
    key_fn: Callable[[dict], Any] | None = None,
) -> dict[Any, dict[str, float | int]]:
    """Group records and compute each metric per group.

    ``group_by`` is a field path; ``key_fn`` overrides it for computed
    keys (e.g. time buckets). With neither, everything is one group keyed
    ``"all"``.
    """
    if group_by is not None and key_fn is not None:
        raise QueryError("pass group_by or key_fn, not both")
    if not metrics:
        raise QueryError("at least one metric is required")
    if key_fn is None:
        if group_by is None:
            key_fn = lambda r: "all"
        else:
            key_fn = lambda r: get_path(r, group_by)
    groups: dict[Any, list[dict]] = {}
    for record in records:
        groups.setdefault(key_fn(record), []).append(record)
    return {
        key: {m.name: m.compute(rows) for m in metrics}
        for key, rows in sorted(groups.items(), key=lambda kv: str(kv[0]))
    }


def time_series(
    records: list[dict],
    metrics: list[Metric],
    time_path: str = "metadata.timestamp",
    bucket_s: float = 600.0,
) -> dict[float, dict[str, float | int]]:
    """Aggregate into fixed time buckets keyed by bucket start time."""
    if bucket_s <= 0:
        raise QueryError("bucket_s must be positive")

    def key_fn(record: dict):
        ts = get_path(record, time_path)
        if not isinstance(ts, (int, float)):
            return None
        return float(int(ts // bucket_s) * bucket_s)

    out = aggregate(records, metrics, key_fn=key_fn)
    out.pop(None, None)  # records without a timestamp fall out of the series
    return out
