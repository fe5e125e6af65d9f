"""Link latency for the network simulator.

:class:`ConstantLatency` maps (src, dst, message size) to a one-way delay in
simulated seconds: a fixed propagation component plus a size-proportional
transmission component (``size / bandwidth``).
"""

from __future__ import annotations


class ConstantLatency:
    """Fixed propagation delay plus deterministic transmission delay."""

    def __init__(self, base: float = 0.001, bandwidth_bps: float = 1e9) -> None:
        if base < 0:
            raise ValueError("base latency must be non-negative")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.base = base
        self.bandwidth_bps = bandwidth_bps

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        return self.base + (size_bytes * 8.0) / self.bandwidth_bps
