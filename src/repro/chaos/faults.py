"""Composable, deterministic fault specifications.

Every fault is a frozen dataclass naming *when* (``at_cycle``) and *what*
to break; :meth:`Fault.inject` applies it to a live
:class:`repro.core.framework.Framework`. Faults that need randomness (which
block to corrupt, which message to drop) draw from rng streams derived via
:func:`repro.util.rng.rng_for` — never from wall clock or global state — so
the same seed reproduces the identical fault schedule, byte for byte.

Message-level chaos (drop / delay / duplicate) goes through
:class:`NetChaosInjector`, which installs into
``SimNetwork.fault_injector`` (see :mod:`repro.net.simnet`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.crypto.cid import CODEC_DAG_JSON
from repro.net.message import Message
from repro.net.simnet import NO_FAULT, FaultAction, SimNetwork
from repro.util.rng import rng_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.framework import Framework


class NetChaosInjector:
    """Seeded message chaos for one :class:`SimNetwork`.

    One uniform draw per message decides its fate via cumulative
    thresholds, so the decision stream depends only on the seed and the
    message *sequence*, not on which fault classes are enabled.
    """

    def __init__(
        self,
        seed: int,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        extra_delay_s: float = 0.05,
    ) -> None:
        if drop_rate + duplicate_rate + delay_rate > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.extra_delay_s = extra_delay_s
        self._rng = rng_for(seed, "chaos", "net")

    def __call__(self, msg: Message) -> FaultAction:
        u = float(self._rng.random())
        if u < self.drop_rate:
            return FaultAction(drop=True)
        if u < self.drop_rate + self.duplicate_rate:
            return FaultAction(duplicate=True)
        if u < self.drop_rate + self.duplicate_rate + self.delay_rate:
            return FaultAction(extra_delay_s=self.extra_delay_s)
        return NO_FAULT


def _consensus_network(framework: "Framework") -> SimNetwork | None:
    cluster = getattr(framework.channel.orderer, "cluster", None)
    return getattr(cluster, "network", None)


@dataclass(frozen=True)
class Fault:
    """When to fire; subclasses say what breaks."""

    at_cycle: int

    def kind(self) -> str:
        return type(self).__name__

    def inject(self, framework: "Framework", rng: np.random.Generator) -> str:
        """Apply the fault; returns a short human/fingerprint detail line."""
        raise NotImplementedError


@dataclass(frozen=True)
class IpfsNodeCrash(Fault):
    peer_id: str

    def inject(self, framework, rng):
        framework.ipfs.crash_node(self.peer_id)
        return f"crashed {self.peer_id}"


@dataclass(frozen=True)
class IpfsNodeRestart(Fault):
    peer_id: str

    def inject(self, framework, rng):
        framework.ipfs.restart_node(self.peer_id)
        return f"restarted {self.peer_id}"


@dataclass(frozen=True)
class PeerOffline(Fault):
    peer_name: str

    def inject(self, framework, rng):
        framework.channel.peers[self.peer_name].online = False
        return f"offlined {self.peer_name}"


@dataclass(frozen=True)
class PeerOnline(Fault):
    peer_name: str

    def inject(self, framework, rng):
        framework.channel.peers[self.peer_name].online = True
        return f"onlined {self.peer_name}"


@dataclass(frozen=True)
class ValidatorCrash(Fault):
    """Crash a consensus validator; crashing the primary stalls the orderer
    until the view change elects a new one."""

    name: str

    def inject(self, framework, rng):
        network = _consensus_network(framework)
        if network is None:
            return "no-op (no consensus network)"
        network.set_node_up(self.name, False)
        return f"crashed {self.name}"


@dataclass(frozen=True)
class ValidatorRestart(Fault):
    name: str

    def inject(self, framework, rng):
        network = _consensus_network(framework)
        if network is None:
            return "no-op (no consensus network)"
        network.set_node_up(self.name, True)
        return f"restarted {self.name}"


@dataclass(frozen=True)
class MessageChaosOn(Fault):
    """Install drop/delay/duplicate chaos on the consensus network."""

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    extra_delay_s: float = 0.05

    def inject(self, framework, rng):
        network = _consensus_network(framework)
        if network is None:
            return "no-op (no consensus network)"
        network.fault_injector = NetChaosInjector(
            self.seed,
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            delay_rate=self.delay_rate,
            extra_delay_s=self.extra_delay_s,
        )
        return (
            f"drop={self.drop_rate} dup={self.duplicate_rate} "
            f"delay={self.delay_rate}@{self.extra_delay_s}s"
        )


@dataclass(frozen=True)
class Partition(Fault):
    """Split the consensus network into the given sides."""

    sides: tuple[tuple[str, ...], ...]

    def inject(self, framework, rng):
        network = _consensus_network(framework)
        if network is None:
            return "no-op (no consensus network)"
        network.partition(*[list(side) for side in self.sides])
        return "|".join(",".join(side) for side in self.sides)


@dataclass(frozen=True)
class HealPartition(Fault):
    def inject(self, framework, rng):
        network = _consensus_network(framework)
        if network is None:
            return "no-op (no consensus network)"
        network.heal()
        return "healed"


@dataclass(frozen=True)
class AmnesiaCrash(Fault):
    """Kill a peer for real: all in-memory state is lost, the unsynced WAL
    suffix is gone (optionally leaving a torn frame), and the node restarts
    from its durable store — checkpoint adoption plus WAL replay, falling
    back to verified state transfer when the WAL is damaged.

    Requires a durability-enabled framework (``FrameworkConfig.durability``);
    without one the fault is a no-op, because an in-memory "crash" that
    preserves state would be a lie.
    """

    peer_name: str = ""
    torn_write: bool = False

    def inject(self, framework, rng):
        manager = getattr(framework, "durability", None)
        if manager is None:
            return "no-op (durability disabled)"
        outcome = manager.crash_and_recover(self.peer_name, torn=self.torn_write)
        return f"{self.peer_name} {outcome.detail()}"


@dataclass(frozen=True)
class DiskFault(Fault):
    """Damage a peer's durable WAL in place: ``truncate`` loses the tail
    sectors, ``corrupt`` flips bits under an intact frame header (detected
    by checksum on the next recovery, which then falls back to verified
    state transfer). Damage is latent — it only bites when the node next
    crashes and tries to recover.
    """

    peer_name: str = ""
    mode: str = "corrupt"  # "corrupt" | "truncate"

    def inject(self, framework, rng):
        manager = getattr(framework, "durability", None)
        if manager is None:
            return "no-op (durability disabled)"
        return f"{self.peer_name} {manager.damage_wal(self.peer_name, self.mode)}"


@dataclass(frozen=True)
class OrdererCrash(Fault):
    """Crash the ordering service: transactions queued but not yet cut into
    a consensus batch are silently lost (and counted in
    ``txs_dropped_total{reason="orderer_crash"}``); clients must resubmit
    through the resilience retry path. Decided batches survive — they are
    journaled synchronously to the orderer's durable store when durability
    is enabled.
    """

    def inject(self, framework, rng):
        manager = getattr(framework, "durability", None)
        if manager is not None:
            dropped = manager.crash_orderer()
            return f"dropped {len(dropped)} queued tx(s)"
        orderer = framework.channel.orderer
        if not hasattr(orderer, "drop_queued"):
            return "no-op (orderer has no queue)"
        from repro.obs.metrics import get_registry

        dropped = orderer.drop_queued()
        if dropped:
            get_registry().counter(
                "txs_dropped_total", {"reason": "orderer_crash"}
            ).inc(len(dropped))
        return f"dropped {len(dropped)} queued tx(s)"


@dataclass(frozen=True)
class CorruptRandomBlock(Fault):
    """Silently flip the bytes of one stored raw block on one online node.

    Only raw (leaf) blocks are targeted: their corruption surfaces as an
    integrity failure at read time, exercising the quarantine + re-fetch
    recovery path. The victim node and block are chosen from the scenario's
    rng stream — deterministic for a given seed and history.
    """

    def inject(self, framework, rng):
        candidates = []
        for node in framework.ipfs.nodes.values():
            if not node.online or not hasattr(node.blockstore, "corrupt"):
                continue
            raws = sorted(
                (c for c in node.blockstore.cids() if c.codec != CODEC_DAG_JSON),
                key=lambda c: c.encode(),
            )
            if raws:
                candidates.append((node, raws))
        if not candidates:
            return "no-op (no raw blocks)"
        node, raws = candidates[int(rng.integers(len(candidates)))]
        cid = raws[int(rng.integers(len(raws)))]
        node.blockstore.corrupt(cid, b"\x00rot\x00" + bytes(rng.bytes(8)))
        return f"corrupted {cid.encode()[:16]} on {node.peer_id}"
