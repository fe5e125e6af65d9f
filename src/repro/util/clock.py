"""Simulated time, and the rendering of ledger timestamps.

Nothing that reaches the ledger reads a wall clock: ledger time is the
channel's proposal counter (:mod:`repro.fabric.channel`), and the
discrete-event network simulator and the chaos runner advance a
:class:`SimClock` by hand.
"""

from __future__ import annotations

import time


class SimClock:
    """Manually advanced clock used by the discrete-event simulator.

    Time never moves on its own; :meth:`advance_to` / :meth:`advance` move it
    forward. Moving backwards is a programming error and raises ``ValueError``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        if t < self._now:
            raise ValueError(f"cannot move SimClock backwards: {t} < {self._now}")
        self._now = float(t)

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance SimClock by a negative delta")
        self._now += float(dt)


def isoformat(ts: float) -> str:
    """Render an epoch timestamp as a UTC ISO-8601 string (second precision).

    Used for the human-readable ``createdAt`` fields the paper's chaincode
    snippets store (``new Date().toISOString()``).
    """
    # Fixed-width ".3f" of an IEEE double is deterministic in CPython; the
    # rendered fraction is identical on every replica given the same ts.
    frac = f"{ts % 1:.3f}"[1:]  # ".123"
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(ts)) + frac + "Z"
