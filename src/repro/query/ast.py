"""Query AST: filter expressions over on-chain metadata records.

Records are the JSON documents the Data Upload chaincode stores (Figure 2
metadata plus envelope fields). Field paths use dots into nested objects
(``metadata.timestamp``, ``metadata.location.lat``); the special path
``vehicle_class`` matches any detection in the record — the common "frames
containing a truck" query shape.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import QueryError

# Paths that quantify over an array of sub-records rather than a scalar:
# the predicate matches when ANY element matches.
ARRAY_PATHS = {
    "vehicle_class": "metadata.detections",
    "color": "metadata.detections",
    "violation_type": "metadata.violations",
}
# Backwards-compatible alias (original name for the detections subset).
DETECTION_PATHS = set(ARRAY_PATHS)


def get_path(record: dict, path: str) -> Any:
    """Resolve a dotted path; missing segments yield None."""
    return _walk(record, path.split("."))


def _walk(record: dict, parts: tuple[str, ...] | list[str]) -> Any:
    current: Any = record
    try:
        for part in parts:
            current = current[part]
    except (KeyError, TypeError):  # missing key / stepping into a non-dict
        return None
    return current


def _resolve(path: str) -> tuple[tuple[str, ...], bool]:
    """``(parts, quantified)``: the pre-split path a predicate on ``path``
    reads, and whether that is an array it matches ANY element of."""
    array = ARRAY_PATHS.get(path)
    return tuple((array or path).split(".")), array is not None


class Expr:
    """Base filter expression."""

    def matches(self, record: dict) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


@dataclass(frozen=True)
class Compare(Expr):
    field: str
    op: str
    value: Any
    # Resolved once, here, not once per record; derived, so not identity.
    _path: tuple[tuple[str, ...], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise QueryError(f"unknown operator {self.op!r}")
        object.__setattr__(self, "_path", _resolve(self.field))

    def matches(self, record: dict) -> bool:
        parts, quantified = self._path
        actual = _walk(record, parts)
        if quantified:
            return any(self._cmp(e.get(self.field)) for e in actual or ())
        return self._cmp(actual)

    def _cmp(self, actual: Any) -> bool:
        if actual is None:
            return False
        try:
            return _OPS[self.op](actual, self.value)
        except TypeError:
            return False  # cross-type comparisons never match


@dataclass(frozen=True)
class InSet(Expr):
    field: str
    values: tuple[Any, ...]
    _path: tuple[tuple[str, ...], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_path", _resolve(self.field))

    def matches(self, record: dict) -> bool:
        parts, quantified = self._path
        actual = _walk(record, parts)
        if quantified:
            return any(e.get(self.field) in self.values for e in actual or ())
        return actual in self.values


@dataclass(frozen=True)
class And(Expr):
    parts: tuple[Expr, ...]

    def matches(self, record: dict) -> bool:
        for part in self.parts:
            if not part.matches(record):
                return False
        return True


@dataclass(frozen=True)
class Or(Expr):
    parts: tuple[Expr, ...]

    def matches(self, record: dict) -> bool:
        return any(p.matches(record) for p in self.parts)


@dataclass(frozen=True)
class Not(Expr):
    inner: Expr

    def matches(self, record: dict) -> bool:
        return not self.inner.matches(record)


@dataclass(frozen=True)
class TrueExpr(Expr):
    """Matches everything (empty WHERE clause)."""

    def matches(self, record: dict) -> bool:
        return True


@dataclass(frozen=True)
class Query:
    """A complete query: projection + filter + ordering + limit."""

    where: Expr = field(default_factory=TrueExpr)
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    # Projection: dotted paths to keep; None = whole records. entry_id and
    # cid are always preserved so results stay retrievable.
    select: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise QueryError("limit must be non-negative")
        if self.select is not None and not self.select:
            raise QueryError("SELECT needs at least one field")

    def apply_post(self, records: list[dict]) -> list[dict]:
        """Ordering, limit, and projection, applied after filtering."""
        out = records
        if self.order_by is not None:
            path = self.order_by
            out = sorted(
                out,
                key=lambda r: (get_path(r, path) is None, get_path(r, path)),
                reverse=self.descending,
            )
        if self.limit is not None:
            out = out[: self.limit]
        if self.select is not None:
            out = [self._project(r) for r in out]
        return out

    def _project(self, record: dict) -> dict:
        projected: dict = {}
        for path in ("entry_id", "cid"):
            if path in record:
                projected[path] = record[path]
        for path in self.select or ():
            value = get_path(record, path)
            if value is not None:
                _set_path(projected, path, value)
        return projected


def _set_path(doc: dict, path: str, value) -> None:
    parts = path.split(".")
    current = doc
    for part in parts[:-1]:
        current = current.setdefault(part, {})
    current[parts[-1]] = value


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten top-level ANDs — what the planner inspects for index use."""
    if isinstance(expr, And):
        out: list[Expr] = []
        for part in expr.parts:
            out.extend(conjuncts(part))
        return out
    if isinstance(expr, TrueExpr):
        return []
    return [expr]
