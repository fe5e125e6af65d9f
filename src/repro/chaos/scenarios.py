"""Named chaos scenarios: the fault schedules the CLI and CI run.

``standard`` is the acceptance scenario: one of three IPFS nodes crashes,
one fabric peer per org goes offline, and the consensus network drops 10%
of its messages — and 50 submit+retrieve cycles must still complete with
zero data loss.
"""

from __future__ import annotations

from repro.chaos.faults import (
    AmnesiaCrash,
    CorruptRandomBlock,
    DiskFault,
    HealPartition,
    IpfsNodeCrash,
    IpfsNodeRestart,
    MessageChaosOn,
    OrdererCrash,
    Partition,
    PeerOffline,
    PeerOnline,
    ValidatorCrash,
    ValidatorRestart,
)
from repro.chaos.scenario import ChaosScenario
from repro.core.framework import FrameworkConfig
from repro.errors import ReproError


def standard(seed: int = 0, n_cycles: int = 50) -> ChaosScenario:
    """Crash 1 of 3 IPFS nodes, offline 1 fabric peer per org, 10% drops."""
    config = FrameworkConfig(
        consensus="bft",
        peers_per_org=2,
        n_ipfs_nodes=3,
        # Batched ordering on: faults must not lose txs queued behind a batch.
        max_batch_size=4,
        resilience_seed=seed,
    )
    return ChaosScenario(
        name="standard",
        config=config,
        n_cycles=n_cycles,
        seed=seed,
        faults=[
            MessageChaosOn(at_cycle=2, seed=seed, drop_rate=0.10),
            IpfsNodeCrash(at_cycle=5, peer_id="ipfs-2"),
            PeerOffline(at_cycle=8, peer_name="peer0.org1"),
            PeerOffline(at_cycle=9, peer_name="peer2.org2"),
            # A short drop storm: 10% loss is absorbed inside consensus,
            # so crank it up briefly to force client-visible retries and
            # breaker transitions, then return to baseline.
            MessageChaosOn(at_cycle=20, seed=seed + 1, drop_rate=0.5),
            MessageChaosOn(at_cycle=24, seed=seed + 2, drop_rate=0.10),
            # Heal phase: every injected fault recovers before the run
            # ends, so the alerting layer can witness the full
            # fire→resolve lifecycle for each fault class.
            IpfsNodeRestart(at_cycle=30, peer_id="ipfs-2"),
            PeerOnline(at_cycle=33, peer_name="peer0.org1"),
            PeerOnline(at_cycle=34, peer_name="peer2.org2"),
        ],
    )


def corruption(seed: int = 0, n_cycles: int = 30) -> ChaosScenario:
    """Silent bit rot: random raw blocks are corrupted mid-run; retrieval
    must quarantine and re-fetch from clean replicas."""
    config = FrameworkConfig(consensus="bft", n_ipfs_nodes=3, resilience_seed=seed)
    return ChaosScenario(
        name="corruption",
        config=config,
        n_cycles=n_cycles,
        seed=seed,
        faults=[CorruptRandomBlock(at_cycle=c) for c in range(4, n_cycles, 5)],
    )


def partition(seed: int = 0, n_cycles: int = 30) -> ChaosScenario:
    """A quorum-destroying 2/2 consensus partition that later heals."""
    config = FrameworkConfig(consensus="bft", n_validators=4, resilience_seed=seed)
    return ChaosScenario(
        name="partition",
        config=config,
        n_cycles=n_cycles,
        seed=seed,
        faults=[
            Partition(
                at_cycle=10,
                sides=(
                    ("validator-0", "validator-1"),
                    ("validator-2", "validator-3"),
                ),
            ),
            HealPartition(at_cycle=13),
        ],
    )


def churn(seed: int = 0, n_cycles: int = 40) -> ChaosScenario:
    """Rolling restarts: IPFS nodes and validators crash and come back."""
    config = FrameworkConfig(
        consensus="bft", peers_per_org=2, n_ipfs_nodes=3, resilience_seed=seed
    )
    return ChaosScenario(
        name="churn",
        config=config,
        n_cycles=n_cycles,
        seed=seed,
        faults=[
            IpfsNodeCrash(at_cycle=5, peer_id="ipfs-1"),
            IpfsNodeRestart(at_cycle=15, peer_id="ipfs-1"),
            IpfsNodeCrash(at_cycle=20, peer_id="ipfs-0"),
            IpfsNodeRestart(at_cycle=30, peer_id="ipfs-0"),
            ValidatorCrash(at_cycle=12, name="validator-3"),
            ValidatorRestart(at_cycle=25, name="validator-3"),
        ],
    )


def crash_recovery(seed: int = 0, n_cycles: int = 40) -> ChaosScenario:
    """Real crashes against durable storage: amnesia restarts replay the
    WAL from the last checkpoint; damaged WALs force verified state
    transfer; an orderer crash drops queued-but-uncut transactions."""
    config = FrameworkConfig(
        consensus="bft",
        peers_per_org=2,
        n_ipfs_nodes=3,
        max_batch_size=4,
        resilience_seed=seed,
        durability=True,
        checkpoint_interval=8,
        wal_sync_every=2,
    )
    return ChaosScenario(
        name="crash_recovery",
        config=config,
        n_cycles=n_cycles,
        seed=seed,
        faults=[
            # Plain amnesia: checkpoint + WAL replay brings the peer back.
            AmnesiaCrash(at_cycle=6, peer_name="peer1.org1"),
            # Power cut mid-write: a torn frame the reader must drop.
            AmnesiaCrash(at_cycle=12, peer_name="peer2.org2", torn_write=True),
            # Latent media corruption, then a crash: checksum failure on
            # recovery forces verified state transfer from honest peers.
            # (Two blocks a cycle, a checkpoint every 8: cycles 17/18 keep
            # the corrupt frame in the live WAL — at 18/19 the crash would
            # land on a checkpoint that compacts the damage away unread.)
            DiskFault(at_cycle=17, peer_name="peer1.org1", mode="corrupt"),
            AmnesiaCrash(at_cycle=18, peer_name="peer1.org1"),
            # Orderer amnesia: queued txs are dropped (and counted).
            OrdererCrash(at_cycle=24),
            # Lost tail sectors read as a torn tail: truncated replay,
            # the rest caught up via block delivery.
            DiskFault(at_cycle=28, peer_name="peer3.org2", mode="truncate"),
            AmnesiaCrash(at_cycle=29, peer_name="peer3.org2"),
        ],
    )


SCENARIOS = {
    "standard": standard,
    "corruption": corruption,
    "partition": partition,
    "churn": churn,
    "crash_recovery": crash_recovery,
}


def get_scenario(name: str, seed: int = 0, n_cycles: int | None = None) -> ChaosScenario:
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ReproError(
            f"unknown chaos scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    if n_cycles is None:
        return factory(seed=seed)
    return factory(seed=seed, n_cycles=n_cycles)
