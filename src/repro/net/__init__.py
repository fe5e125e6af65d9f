"""Deterministic discrete-event network simulator: the substrate under BFT
consensus rounds and bitswap block exchange."""

from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.simnet import FaultAction, NetStats, SimNetwork

__all__ = [
    "ConstantLatency",
    "FaultAction",
    "Message",
    "NetNode",
    "NetStats",
    "SimNetwork",
]
