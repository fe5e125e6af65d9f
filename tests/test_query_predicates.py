"""The compiled filter predicates against a plain reference evaluator.

Each :class:`~repro.query.ast.Expr` compiles itself into a closure when it
is built, and both the state routes and :meth:`QueryEngine.scan` call that
closure — so the index sanitizer's route-vs-scan check cannot catch a
compiling bug. This file's ``evaluate`` is the independent oracle: a direct
reading of the filter rules, sharing no code with ``repro.query``:

* a dotted path reads None on a missing key or a step into a non-object;
  None never matches, and a comparison across types is False;
* ``vehicle_class`` / ``color`` / ``violation_type`` match when ANY object
  element of the record's list matches; a non-list, or a non-object
  element, does not match.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.ast import And, Compare, InSet, Not, Or, TrueExpr

_ARRAYS = {
    "vehicle_class": "metadata.detections",
    "color": "metadata.detections",
    "violation_type": "metadata.violations",
}

_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def _read(record, path):
    value = record
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _holds(expr, actual):
    if actual is None:
        return False
    if isinstance(expr, InSet):
        return any(actual == v for v in expr.values)
    try:
        return bool(_COMPARE[expr.op](actual, expr.value))
    except TypeError:
        return False


def evaluate(expr, record) -> bool:
    if isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, And):
        return all(evaluate(part, record) for part in expr.parts)
    if isinstance(expr, Or):
        return any(evaluate(part, record) for part in expr.parts)
    if isinstance(expr, Not):
        return not evaluate(expr.inner, record)
    if expr.field in _ARRAYS:
        elements = _read(record, _ARRAYS[expr.field])
        if not isinstance(elements, list):
            return False
        return any(
            _holds(expr, element.get(expr.field))
            for element in elements
            if isinstance(element, dict)
        )
    return _holds(expr, _read(record, expr.field))


# -- records: every shape a client can store ------------------------------------

# Few distinct values, so that a record's value often equals a literal:
# the edge every ``>=`` / ``<=`` / ``IN`` turns on.
_literals = st.one_of(
    st.booleans(),
    st.sampled_from([-1, 0, 1, 2]),
    st.sampled_from([-0.5, 0.0, 1.0, 1.5]),
    st.sampled_from(["", "a", "car", "truck"]),
)
_scalars = st.one_of(st.none(), _literals)
_objects = st.fixed_dictionaries(
    {"vehicle_class": _scalars, "color": _scalars, "violation_type": _scalars}
)
_elements = st.one_of(_objects, st.just({}), _scalars, st.lists(_scalars, max_size=2))
_arrays = st.one_of(
    st.lists(_objects, min_size=1, max_size=3),
    st.lists(_elements, max_size=4),
    _scalars,
    _objects,
)
_location = st.one_of(
    st.fixed_dictionaries({"lat": st.one_of(st.fixed_dictionaries({"deep": _scalars}), _scalars)}),
    _scalars,
)
_metadata_fields = {
    "camera_id": _scalars,
    "timestamp": _scalars,
    "location": _location,
    "detections": _arrays,
    "violations": _arrays,
}
_metadata = st.one_of(
    st.fixed_dictionaries(_metadata_fields),
    st.fixed_dictionaries({}, optional=_metadata_fields),
)
records = st.one_of(
    st.fixed_dictionaries(
        {"entry_id": st.just("e"), "metadata": _metadata}, optional={"source_id": _scalars}
    ),
    st.fixed_dictionaries({"entry_id": st.just("e")}, optional={
        "source_id": _scalars,
        "metadata": st.one_of(_scalars, st.lists(_scalars, max_size=2)),
    }),
)

# -- expressions: all six operators, IN, AND/OR/NOT, every path depth -----------

_FIELDS = [
    "source_id", "missing", "metadata", "metadata.camera_id", "metadata.timestamp",
    "metadata.location.lat", "metadata.location.lat.deep", "metadata.nope.x.y",
    "vehicle_class", "color", "violation_type",
]
_leaves = st.one_of(
    st.builds(Compare, st.sampled_from(_FIELDS), st.sampled_from(sorted(_COMPARE)), _literals),
    st.builds(InSet, st.sampled_from(_FIELDS), st.lists(_literals, max_size=3).map(tuple)),
    st.just(TrueExpr()),
)
exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(And, st.lists(inner, max_size=3).map(tuple)),
        st.builds(Or, st.lists(inner, max_size=3).map(tuple)),
        st.builds(Not, inner),
    ),
    max_leaves=6,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(exprs, records)
def test_compiled_predicates_agree_with_the_reference(expr, record):
    assert expr.matches(record) is evaluate(expr, record)


def _held(record, field):
    """A value ``record`` holds under ``field`` (for an array path, its
    first object element's), or None."""
    if field not in _ARRAYS:
        return _read(record, field)
    elements = _read(record, _ARRAYS[field])
    for element in elements if isinstance(elements, list) else ():
        if isinstance(element, dict) and element.get(field) is not None:
            return element[field]
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(records, st.sampled_from(_FIELDS), _literals)
def test_every_operator_at_the_value_the_record_holds(record, field, literal):
    """Literals equal to the record's own value: the edge that tells ``>=``
    from ``>``, and a hit from a miss of ``IN``."""
    for value in (_held(record, field), literal):
        if value is None:
            continue
        for expr in [Compare(field, op, value) for op in _COMPARE] + [
            InSet(field, (value,)), InSet(field, (literal, value)),
        ]:
            assert expr.matches(record) is evaluate(expr, record), expr


def test_an_array_match_stops_at_the_first_element_that_matches():
    class Exploding(dict):
        def get(self, key, default=None):
            raise AssertionError("read past the first match")

    record = {"metadata": {"detections": [{"vehicle_class": "car"}, Exploding()]}}
    assert Compare("vehicle_class", "=", "car").matches(record)
    assert InSet("vehicle_class", ("bus", "car")).matches(record)


@pytest.mark.parametrize("detections", [
    5, True, 1.5, "car", {"vehicle_class": "car"}, ["car"], [["car"]], [None, 5, "car"],
])
def test_a_malformed_array_matches_nothing(detections):
    record = {"metadata": {"detections": detections}}
    exprs = [Compare("vehicle_class", op, "car") for op in _COMPARE]
    for expr in exprs + [InSet("vehicle_class", ("car", 5))]:
        assert expr.matches(record) is evaluate(expr, record) is False
