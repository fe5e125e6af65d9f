"""Convenience base class for protocol participants on a SimNetwork."""

from __future__ import annotations

from typing import Any

from repro.net.message import Message
from repro.net.simnet import SimNetwork


class NetNode:
    """A named participant bound to a :class:`SimNetwork`.

    Subclasses override :meth:`on_message`; :meth:`send`/:meth:`broadcast`
    route through the simulator. The base class auto-registers on
    construction, so building the node is enough to join the network.
    """

    def __init__(self, name: str, network: SimNetwork) -> None:
        self.name = name
        self.network = network
        network.register(name, self.on_message)

    def on_message(self, msg: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def send(self, dst: str, payload: Any, size_bytes: int = 256, kind: str = "msg") -> None:
        self.network.send(self.name, dst, payload, size_bytes=size_bytes, kind=kind)

    def broadcast(self, payload: Any, size_bytes: int = 256, kind: str = "msg") -> None:
        self.network.broadcast(self.name, payload, size_bytes=size_bytes, kind=kind)

    def after(self, delay: float, action) -> None:
        """Schedule a local timer on the shared event loop."""
        self.network.schedule(delay, action)
