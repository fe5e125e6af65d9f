"""ChaosScenario: drive a live Framework through a fault schedule.

The runner executes ``n_cycles`` submit+retrieve round-trips against a
freshly built :class:`repro.core.framework.Framework`, applying each
cycle's scheduled faults first, then keeping the system honest: every
successful submission is replicated, repaired, and anti-entropy'd, and
re-read both immediately and in a final sweep. Nothing escapes: every
framework-level failure is caught, typed, and recorded in the
:class:`CycleResult` stream, so a scenario "passes" exactly when the
report shows zero data loss and only the failures the faults explain.

Determinism: payloads, fault randomness, and retry jitter all come from
:func:`repro.util.rng.rng_for` streams under the scenario seed, and the
:meth:`ChaosReport.fingerprint` hashes only wall-clock-free,
run-invariant fields (fault details, per-cycle outcome flags, loss set) —
so the same seed must produce the identical fingerprint twice.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.chaos.faults import Fault
from repro.core.client import Client
from repro.core.framework import Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.errors import ReproError
from repro.ipfs.replication import ReplicationManager
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.trust import SourceTier
from repro.util.clock import SimClock
from repro.util.rng import rng_for

if TYPE_CHECKING:
    from repro.analysis.runtime import Sanitizer


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one submit+retrieve cycle (wall-clock-free)."""

    cycle: int
    faults: tuple[str, ...]
    submitted: bool
    submit_error: str
    retrieved: bool
    verified: bool
    degraded: bool
    retrieve_error: str
    repair_error: str = ""

    def key(self) -> list:
        return [
            self.cycle,
            list(self.faults),
            self.submitted,
            self.submit_error,
            self.retrieved,
            self.verified,
            self.degraded,
            self.retrieve_error,
            self.repair_error,
        ]


@dataclass
class ChaosReport:
    """What a scenario run produced; ``fingerprint()`` is the determinism
    witness chaos tests compare across same-seed runs."""

    scenario: str
    seed: int
    n_cycles: int
    cycles: list[CycleResult]
    stored: int
    final_loss: list[int]
    # The run's framework sanitizer, if one was enabled; not fingerprinted.
    sanitizer: Sanitizer | None = None

    @property
    def data_loss(self) -> int:
        return len(self.final_loss)

    @property
    def submitted_ok(self) -> int:
        return sum(1 for c in self.cycles if c.submitted)

    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "n_cycles": self.n_cycles,
                "cycles": [c.key() for c in self.cycles],
                "stored": self.stored,
                "final_loss": self.final_loss,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "cycles": self.n_cycles,
            "submitted_ok": self.submitted_ok,
            "stored": self.stored,
            "data_loss": self.data_loss,
            "degraded_cycles": sum(1 for c in self.cycles if c.degraded),
            "faults_injected": sum(len(c.faults) for c in self.cycles),
            "fingerprint": self.fingerprint(),
        }


@dataclass
class ChaosScenario:
    """A named fault schedule over a framework deployment."""

    name: str
    config: FrameworkConfig
    faults: list[Fault] = field(default_factory=list)
    n_cycles: int = 50
    seed: int = 0
    payload_bytes: int = 1024
    replication_factor: int = 2
    cycle_tick_s: float = 0.1  # how much breaker-time one cycle represents
    # Observer invoked after every cycle with (cycle, framework, manager);
    # the health/alerting layer hooks in here to evaluate the live system
    # at each tick without the runner knowing about it.
    on_cycle: Callable[[int, Framework, ReplicationManager], None] | None = None

    def schedule(self) -> dict[int, list[Fault]]:
        by_cycle: dict[int, list[Fault]] = {}
        for fault in self.faults:
            by_cycle.setdefault(fault.at_cycle, []).append(fault)
        return by_cycle

    def run(self) -> ChaosReport:
        framework = Framework(self.config)
        # Breaker cooldowns must follow the cycle clock, not wall time:
        # cycles run in microseconds, so a wall-clock breaker would never
        # half-open within a run — and the outcome would depend on host
        # speed, breaking fingerprint determinism.
        clock = SimClock()  # one cycle_tick_s per cycle
        framework.resilience.set_clock(clock.now)
        source = framework.register_source("chaos-cam", tier=SourceTier.TRUSTED)
        client = Client(framework, source)
        manager = ReplicationManager(
            framework.ipfs, replication_factor=self.replication_factor
        )
        payload_rng = rng_for(self.seed, "chaos", "payload")
        fault_rng = rng_for(self.seed, "chaos", "faults")
        schedule = self.schedule()
        registry = get_registry()

        cycles: list[CycleResult] = []
        stored: list[tuple[int, str, bytes]] = []  # (cycle, entry_id, data)
        with obs_span("chaos.scenario") as root:
            root.set_attr("scenario", self.name)
            root.set_attr("seed", self.seed)
            for cycle in range(self.n_cycles):
                clock.advance(self.cycle_tick_s)
                fault_descs: list[str] = []
                for fault in schedule.get(cycle, []):
                    with obs_span("chaos.inject") as sp:
                        sp.set_attr("kind", fault.kind())
                        sp.set_attr("cycle", cycle)
                        detail = fault.inject(framework, fault_rng)
                        sp.set_attr("detail", detail)
                    registry.counter(
                        "chaos_faults_total", {"kind": fault.kind()}
                    ).inc()
                    fault_descs.append(f"{fault.kind()}:{detail}")
                cycles.append(
                    self._one_cycle(
                        cycle, client, manager, payload_rng, fault_descs, stored
                    )
                )
                if self.on_cycle is not None:
                    self.on_cycle(cycle, framework, manager)
            final_loss = self._final_sweep(client, manager, framework, stored)
            root.set_attr("data_loss", len(final_loss))
        return ChaosReport(
            scenario=self.name,
            seed=self.seed,
            n_cycles=self.n_cycles,
            cycles=cycles,
            stored=len(stored),
            final_loss=final_loss,
            sanitizer=framework.sanitizer,
        )

    def _one_cycle(
        self, cycle, client, manager, payload_rng, fault_descs, stored
    ) -> CycleResult:
        framework = client.framework
        data = bytes(payload_rng.bytes(self.payload_bytes))
        submitted, submit_error, entry_id = False, "", None
        try:
            receipt = client.submit(
                data, {"timestamp": float(cycle), "detections": []}
            )
            submitted, entry_id = receipt.ok, receipt.entry_id
            manager.replicate(CID.parse(receipt.cid))
        except ReproError as exc:
            submit_error = type(exc).__name__
        # Background maintenance every cycle: re-replicate after crashes,
        # catch restarted peers up to the chain.
        repair_error = ""
        try:
            manager.repair()
        except ReproError as exc:
            repair_error = type(exc).__name__
        try:
            framework.channel.anti_entropy()
        except ReproError as exc:
            repair_error = repair_error or type(exc).__name__

        retrieved = verified = degraded = False
        retrieve_error = ""
        if submitted and entry_id is not None:
            try:
                result = client.retrieve(entry_id)
                retrieved, verified, degraded = (
                    True,
                    result.verified,
                    result.degraded,
                )
                if not degraded and result.data != data:
                    retrieve_error = "DataMismatch"
                else:
                    stored.append((cycle, entry_id, data))
            except ReproError as exc:
                retrieve_error = type(exc).__name__
        return CycleResult(
            cycle=cycle,
            faults=tuple(fault_descs),
            submitted=submitted,
            submit_error=submit_error,
            retrieved=retrieved,
            verified=verified,
            degraded=degraded,
            retrieve_error=retrieve_error,
            repair_error=repair_error,
        )

    def _final_sweep(self, client, manager, framework, stored) -> list[int]:
        """Re-read every stored entry under the end-state faults; a loss is
        a cycle whose bytes can no longer be served intact."""
        try:
            manager.repair()
            framework.channel.anti_entropy()
        except ReproError:
            pass
        loss: list[int] = []
        for cycle, entry_id, data in stored:
            try:
                result = client.retrieve(entry_id)
                if result.degraded or result.data != data:
                    loss.append(cycle)
            except ReproError:
                loss.append(cycle)
        return loss
