"""The threat table (``tests/threat_table.py``): a defended row passes, an
open row is a strict xfail naming the ROADMAP item that owns it, and a row
proven elsewhere names a tier-1 test that exists and runs."""

import importlib

import pytest

from tests.threat_table import THREATS


def _row(name):
    item = THREATS[name].item
    if item is None:
        return name
    # Only the defence's own assertion may fail: a broken attack errors.
    missing = pytest.mark.xfail(
        strict=True, raises=(AssertionError, pytest.fail.Exception),
        reason=f"open: ROADMAP item {item}",
    )
    return pytest.param(name, marks=missing)


@pytest.mark.parametrize("name", [_row(n) for n, t in THREATS.items() if t.check])
def test_the_attack_is_refused_or_detected(name):
    THREATS[name].check()


@pytest.mark.parametrize("name", [n for n, t in THREATS.items() if t.proof])
def test_a_row_proven_elsewhere_names_a_tier1_test(name):
    path, *attrs = THREATS[name].proof.split("::")
    holder = importlib.import_module(path.removesuffix(".py").replace("/", "."))
    for attr in attrs:
        holder = getattr(holder, attr)
        marks = {mark.name for mark in getattr(holder, "pytestmark", ())}
        assert not marks & {"skip", "skipif", "xfail"}


def test_each_row_is_checked_here_or_proven_elsewhere_and_an_open_row_runs_here():
    for threat in THREATS.values():
        assert (threat.check is None) != (threat.proof is None)
        assert threat.item is None or threat.check is not None
