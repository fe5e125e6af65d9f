"""Declarative alerting over health reports: threshold + for-duration +
severity, with a firing/resolved lifecycle.

Rules are Prometheus-style in spirit: each names a *signal* on the
:class:`~repro.obs.health.HealthReport` (``component:<name>`` resolves to
the component's status ordinal, ``sli:<name>`` to the SLI value), a
comparison against a threshold, and how many consecutive ticks the
condition must hold (``for_ticks``) before the alert fires. Feeding one
report per tick into :meth:`AlertEngine.evaluate` advances every rule's
lifecycle and appends ``firing`` / ``resolved`` events to the alert log.

The log is the audit trail *and* the determinism witness: chaos scenarios
assert that a fixed seed yields a byte-identical
:meth:`AlertEngine.fingerprint` — which is why :func:`standard_rules`
only reference signals derived from system state and deterministic
counters, never wall-clock latencies.

Gauges (``alert_state{name=}``, ``alerts_firing{severity=}``) and the
``alerts_fired_total{name=}`` counter ride the shared metrics registry,
so firing alerts are visible in the same Prometheus exposition as
everything else.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs.health import HealthMonitor, HealthReport
from repro.obs.metrics import MetricsRegistry, get_registry

_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule: fire when ``signal op threshold`` has held
    for ``for_ticks`` consecutive evaluations."""

    name: str
    signal: str               # "component:<name>" or "sli:<name>"
    op: str                   # > >= < <=
    threshold: float
    for_ticks: int = 1
    severity: str = "warning"  # warning | critical

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ObservabilityError(f"unknown alert op {self.op!r}")
        if self.for_ticks < 1:
            raise ObservabilityError("for_ticks must be >= 1")

    def condition(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def describe(self) -> str:
        return f"{self.signal} {self.op} {self.threshold} for {self.for_ticks}t"


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition in the alert log."""

    tick: int
    rule: str
    severity: str
    state: str                # "firing" | "resolved"
    value: float

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            # Rounded so float noise can never split a fingerprint.
            "value": round(self.value, 6),
        }


@dataclass
class _RuleState:
    consecutive: int = 0
    firing: bool = False


class AlertEngine:
    """Evaluates rules over a stream of health reports, one per tick."""

    def __init__(
        self, rules: list[AlertRule], registry: MetricsRegistry | None = None
    ) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ObservabilityError("alert rule names must be unique")
        self.rules = list(rules)
        self.registry = registry or get_registry()
        self.log: list[AlertEvent] = []
        self._state: dict[str, _RuleState] = {r.name: _RuleState() for r in rules}

    def evaluate(self, report: HealthReport) -> list[AlertEvent]:
        """Advance every rule one tick; returns the transitions this tick."""
        events: list[AlertEvent] = []
        for rule in self.rules:
            state = self._state[rule.name]
            value = report.signal(rule.signal)
            # No data is not an outage: the condition is simply not met.
            met = value is not None and rule.condition(value)
            state.consecutive = state.consecutive + 1 if met else 0
            if not state.firing and state.consecutive >= rule.for_ticks:
                state.firing = True
                events.append(self._transition(report.tick, rule, "firing", value))
                self.registry.counter("alerts_fired_total", {"name": rule.name}).inc()
            elif state.firing and not met:
                state.firing = False
                events.append(
                    self._transition(report.tick, rule, "resolved", value)
                )
        self.log.extend(events)
        self._export()
        return events

    def _transition(
        self, tick: int, rule: AlertRule, state: str, value: float | None
    ) -> AlertEvent:
        return AlertEvent(
            tick=tick,
            rule=rule.name,
            severity=rule.severity,
            state=state,
            value=0.0 if value is None else value,
        )

    def _export(self) -> None:
        by_severity: dict[str, int] = {}
        for rule in self.rules:
            firing = self._state[rule.name].firing
            self.registry.gauge("alert_state", {"name": rule.name}).set(int(firing))
            if firing:
                by_severity[rule.severity] = by_severity.get(rule.severity, 0) + 1
        for severity in {r.severity for r in self.rules}:
            self.registry.gauge("alerts_firing", {"severity": severity}).set(
                by_severity.get(severity, 0)
            )

    # -- queries ----------------------------------------------------------------

    def active(self) -> list[str]:
        """Names of the rules firing right now."""
        return [r.name for r in self.rules if self._state[r.name].firing]

    def fired(self) -> set[str]:
        """Every rule that fired at least once over the engine's lifetime."""
        return {e.rule for e in self.log if e.state == "firing"}

    def fingerprint(self) -> str:
        """Determinism witness over the full alert log."""
        payload = json.dumps(
            [e.to_dict() for e in self.log], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def render_lines(self) -> list[str]:
        if not self.log:
            return ["no alert transitions"]
        return [
            f"t={e.tick:>3} {e.state.upper():<8} [{e.severity}] {e.rule} "
            f"(value {e.value:.4f})"
            for e in self.log
        ]


# ---------------------------------------------------------------------------
# The standard rule set and its chaos wiring
# ---------------------------------------------------------------------------


def standard_rules() -> list[AlertRule]:
    """The default rule set ``repro health`` and ``repro chaos run --alerts`` use.

    Every signal referenced here is deterministic under a seeded chaos run
    (component statuses and counter-ratio SLIs only — never wall-clock
    latency quantiles), so the alert log fingerprints stably.
    """
    return [
        AlertRule(
            name="ipfs_node_down",
            signal="component:ipfs.nodes",
            op=">=",
            threshold=1,        # DEGRADED or worse
            severity="warning",
        ),
        AlertRule(
            name="fabric_peer_down",
            signal="component:fabric.peers",
            op=">=",
            threshold=1,
            severity="warning",
        ),
        AlertRule(
            name="validator_quorum_lost",
            signal="component:consensus.validators",
            op=">=",
            threshold=2,        # UNHEALTHY: below quorum
            severity="critical",
        ),
        AlertRule(
            name="consensus_drop_storm",
            signal="sli:consensus_drop_fraction",
            op=">",
            threshold=0.3,
            for_ticks=2,
            severity="critical",
        ),
        AlertRule(
            name="breaker_open",
            signal="component:resilience.breakers",
            op=">=",
            threshold=2,        # UNHEALTHY: at least one breaker open
            severity="critical",
        ),
        AlertRule(
            name="replication_degraded",
            signal="sli:replication_health",
            op="<",
            threshold=1.0,
            for_ticks=2,
            severity="warning",
        ),
        # Durability SLIs only exist when the framework runs with
        # durability enabled; elsewhere the signal resolves to None and
        # the condition is never met, so existing fingerprints hold.
        AlertRule(
            name="node_recovered",
            signal="sli:recovery_rate",
            op=">",
            threshold=0,
            severity="warning",
        ),
        AlertRule(
            name="recovery_replay_lag",
            signal="sli:recovery_replay_lag",
            op=">",
            threshold=0,
            severity="warning",
        ),
        AlertRule(
            name="wal_damage",
            signal="sli:wal_damage_rate",
            op=">",
            threshold=0,
            severity="critical",
        ),
    ]


# Scenario name -> the alerts its fault schedule must fire (one per
# injected fault class) — the CI health gate's contract. Each scenario
# listed here also heals every fault, so all of these must resolve by the
# end of the run.
EXPECTED_ALERTS: dict[str, set[str]] = {
    "standard": {
        "ipfs_node_down",        # IpfsNodeCrash @5  → IpfsNodeRestart @30
        "fabric_peer_down",      # PeerOffline @8,9  → PeerOnline @33,34
        "consensus_drop_storm",  # MessageChaosOn drop storm @20 → calm @24
    },
    "crash_recovery": {
        "node_recovered",        # AmnesiaCrash @6,12,19,29 → windowed SLI decays
        "recovery_replay_lag",   # state transfer skips the WAL → lag blocks
        "wal_damage",            # DiskFault/torn writes → damaged-WAL recoveries
    },
}


class ChaosAlertProbe:
    """A :attr:`ChaosScenario.on_cycle` observer: health check + alert
    evaluation per cycle.

    Built lazily on the first cycle (the scenario constructs its framework
    inside ``run()``), then exposes the monitor and engine for assertions
    after the run.
    """

    def __init__(
        self,
        rules: list[AlertRule] | None = None,
        registry: MetricsRegistry | None = None,
        window: int = 8,
    ) -> None:
        self.rules = rules if rules is not None else standard_rules()
        self.registry = registry
        self.window = window
        self.monitor: HealthMonitor | None = None
        self.engine: AlertEngine | None = None

    def __call__(self, cycle: int, framework, manager) -> None:
        if self.monitor is None:
            self.monitor = HealthMonitor(
                framework,
                registry=self.registry,
                replication=manager,
                window=self.window,
            )
            self.engine = AlertEngine(self.rules, registry=self.registry)
        self.engine.evaluate(self.monitor.check())

    # -- post-run verdict --------------------------------------------------------

    def verify(self, scenario_name: str) -> tuple[bool, list[str]]:
        """Did the expected alerts fire, and did every alert resolve?"""
        problems: list[str] = []
        if self.engine is None:
            return False, ["probe never ran — no cycles observed"]
        expected = EXPECTED_ALERTS.get(scenario_name, set())
        fired = self.engine.fired()
        for name in sorted(expected - fired):
            problems.append(f"expected alert never fired: {name}")
        for name in sorted(self.engine.active()):
            problems.append(f"alert still firing after heal: {name}")
        return not problems, problems
