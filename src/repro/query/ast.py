"""Query AST: filter expressions over on-chain metadata records.

Records are the JSON documents the Data Upload chaincode stores (Figure 2
metadata plus envelope fields). Field paths use dots into nested objects
(``metadata.timestamp``, ``metadata.location.lat``); the special path
``vehicle_class`` matches any detection in the record — the common "frames
containing a truck" query shape.

A ``WHERE`` node is a read-only value of a slotted class, built by a plain
``__init__`` that also compiles its predicate into one closure. A
:class:`Query` is a frozen dataclass (``dataclasses.replace`` copies it).
"""

from __future__ import annotations

import operator
from collections.abc import Callable
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


def get_path(record: dict, path: str) -> Any:
    """Resolve a dotted path; missing segments yield None."""
    current: Any = record
    try:
        for part in path.split("."):
            current = current[part]
    except (KeyError, TypeError):  # missing key / stepping into a non-dict
        return None
    return current


_Predicate = Callable[[dict], bool]


def _compile_path(path: str, op: Callable[[Any, Any], bool], value: Any) -> _Predicate:
    """The predicate ``<path> op value`` over one record, with the path split
    into keys and ``op`` and ``value`` bound once. A missing key or a step
    into a non-dict reads None, None never matches, and a cross-type
    comparison is False. An :data:`ARRAY_PATHS` path matches when ANY object
    element of its list matches; a non-list, or a non-object element, does
    not. Paths of depth 2 and 3 are read by direct indexing."""
    array = ARRAY_PATHS.get(path)
    keys = tuple((array or path).split("."))
    if array is not None:

        def match(record: dict) -> bool:
            try:
                for key in keys:
                    record = record[key]
            except (KeyError, TypeError):
                return False
            if not isinstance(record, list):
                return False
            for element in record:
                if isinstance(element, dict):
                    actual = element.get(path)
                    try:
                        if actual is not None and op(actual, value):
                            return True
                    except TypeError:
                        pass
            return False

    elif len(keys) == 2:
        a, b = keys

        def match(record: dict) -> bool:
            try:
                actual = record[a][b]
                return actual is not None and op(actual, value)
            except (KeyError, TypeError):
                return False

    elif len(keys) == 3:
        a, b, c = keys

        def match(record: dict) -> bool:
            try:
                actual = record[a][b][c]
                return actual is not None and op(actual, value)
            except (KeyError, TypeError):
                return False

    else:

        def match(record: dict) -> bool:
            try:
                for key in keys:
                    record = record[key]
                return record is not None and op(record, value)
            except (KeyError, TypeError):
                return False

    return match


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


def _is_in(actual: Any, values: tuple[Any, ...]) -> bool:
    return actual in values


class Expr:
    """Base filter expression. ``matches(record)`` is the node compiled, when
    it is built, into one closure over its parts' closures: filtering a row
    is one call, not a walk of the tree. Two nodes are equal when their class
    and ``_fields`` are, and hash and print by those, as dataclasses would."""

    __slots__ = ("matches",)
    _fields: tuple[str, ...] = ()
    matches: _Predicate

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class Compare(Expr):
    __slots__ = _fields = ("field", "op", "value")

    def __init__(self, field: str, op: str, value: Any) -> None:
        if op not in _OPS:
            raise QueryError(f"unknown operator {op!r}")
        self.field, self.op, self.value = field, op, value
        self.matches = _compile_path(field, _OPS[op], value)


class InSet(Expr):
    __slots__ = _fields = ("field", "values")

    def __init__(self, field: str, values: tuple[Any, ...]) -> None:
        self.field, self.values = field, values
        self.matches = _compile_path(field, _is_in, values)


class And(Expr):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Expr, ...]) -> None:
        self.parts = parts
        if len(parts) == 2:
            first, second = parts[0].matches, parts[1].matches
            self.matches = lambda record: first(record) and second(record)
        else:
            tests = tuple(part.matches for part in parts)
            self.matches = lambda record: all(test(record) for test in tests)


class Or(Expr):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Expr, ...]) -> None:
        self.parts = parts
        tests = tuple(part.matches for part in parts)
        self.matches = lambda record: any(test(record) for test in tests)


class Not(Expr):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: Expr) -> None:
        self.inner = inner
        test = inner.matches
        self.matches = lambda record: not test(record)


class TrueExpr(Expr):
    """Matches everything (empty WHERE clause)."""

    __slots__ = ()

    def __init__(self) -> None:
        self.matches = lambda record: True


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
            try:
                out = sorted(
                    out,
                    key=lambda r: ((v := get_path(r, path)) is None, v),
                    reverse=self.descending,
                )
            except TypeError:
                raise QueryError(f"ORDER BY {path}: values of mixed types do not order") from None
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
