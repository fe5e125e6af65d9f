"""repro.chaos — deterministic, seeded fault injection for the framework.

Faults (:mod:`repro.chaos.faults`) are frozen specs — node crash/restart,
peer offline/online, validator crash, message drop/delay/duplicate,
partition + heal, silent block corruption, amnesia crashes against
durable storage, WAL disk faults, orderer crashes — applied on a cycle
schedule by
:class:`repro.chaos.scenario.ChaosScenario` against a live framework. All
randomness flows from :func:`repro.util.rng.rng_for` streams, so a seed
fully determines the fault schedule *and* the recovery trace, and
:meth:`~repro.chaos.scenario.ChaosReport.fingerprint` makes that
comparable across runs. Every injection is recorded as a ``chaos.inject``
span and a ``chaos_faults_total{kind=...}`` counter.
"""

from repro.chaos.faults import (
    AmnesiaCrash,
    CorruptRandomBlock,
    DiskFault,
    Fault,
    HealPartition,
    IpfsNodeCrash,
    IpfsNodeRestart,
    MessageChaosOn,
    NetChaosInjector,
    OrdererCrash,
    Partition,
    PeerOffline,
    PeerOnline,
    ValidatorCrash,
    ValidatorRestart,
)
from repro.chaos.scenario import ChaosReport, ChaosScenario, CycleResult
from repro.chaos.scenarios import SCENARIOS, get_scenario

__all__ = [
    "Fault",
    "IpfsNodeCrash",
    "IpfsNodeRestart",
    "PeerOffline",
    "PeerOnline",
    "ValidatorCrash",
    "ValidatorRestart",
    "MessageChaosOn",
    "Partition",
    "HealPartition",
    "CorruptRandomBlock",
    "AmnesiaCrash",
    "DiskFault",
    "OrdererCrash",
    "NetChaosInjector",
    "ChaosScenario",
    "ChaosReport",
    "CycleResult",
    "SCENARIOS",
    "get_scenario",
]
