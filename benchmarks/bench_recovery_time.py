"""Recovery-time benchmark: WAL replay and verified state transfer.

The durability acceptance bar: a crashed peer must come back to exact state
parity, and the *shape* of what it recovered from local durable state vs the
network must be deterministic. Each round builds a fresh durable deployment,
commits a fixed workload, then measures the two recovery paths:

* **WAL replay** — amnesia crash mid-checkpoint-interval: the peer adopts
  the last checkpoint and re-commits the WAL suffix through full validation.
* **State transfer** — a corrupted WAL: recovery falls back to a
  digest-verified snapshot from quorum-agreeing donors.

Then the counterweight to cheap recovery — what a checkpoint costs:

* **Steady-state checkpoint** — the cadence is switched off, one checkpoint
  interval of blocks is committed, and one ``checkpoint_peer`` is measured in
  isolation: once under the profiler (``checkpoint_canonical_json_calls``,
  ``checkpoint_serialized_bytes``), once more, after another interval, on the
  clock (``checkpoint_wall_s``).

Every round runs at two ledger sizes, the same workload generator stopped at
``N_BLOCKS`` and at ``N_BLOCKS_LARGE`` blocks; the large size's series carry
a ``large_`` prefix. A checkpoint must cost what changed since the last one,
so the two sizes' ``checkpoint_canonical_json_calls`` are asserted equal (to
within the one call a completed posting run adds).

Decision rule for ``checkpoint_serialized_bytes`` (recorded here so the next
change does not have to rediscover it): a posting's checkpoint lines are
re-serialised when it gains an entry, and this workload is the worst case —
one source holds every record, so one posting is the whole ledger. If the
bytes grow more than 2x from the small to the large size, bound the
re-serialised part of a posting (fixed runs of entries, full runs immutable,
only the tail rewritten) rather than adding a setting. The bench asserts the
ratio stays under 2.

The count series (``replayed_blocks``, ``catchup_blocks``,
``state_transfer_blocks``, ``checkpoint_height``,
``checkpoint_canonical_json_calls``, ``checkpoint_serialized_bytes``) are
EXACT in the bench-trend taxonomy — any drift is a behaviour change the
`repro bench-diff` gate must catch. The ``*_wall_s`` series are TIMING:
one-sided, tolerance-gated. Exits non-zero if a recovered peer fails state
parity.

Runnable standalone for CI (``python benchmarks/bench_recovery_time.py
--quick``): one round, same gates.
"""

import time

from repro.bench import emit, emit_json, format_table
from repro.core import Framework, FrameworkConfig
from repro.fabric.snapshot import states_agree
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.prof import profiling
from repro.storage import CORRUPT
from repro.trust import SourceTier

N_BLOCKS = 18          # committed workload height before the crashes
N_BLOCKS_LARGE = 1000  # the same workload, tall enough for size-dependent cost to show
CHECKPOINT_INTERVAL = 8
ROUNDS = 3
CRASH_PEER = "peer1.org1"
SIZES = (("", N_BLOCKS), ("large_", N_BLOCKS_LARGE))  # series prefix, ledger size
EXACT_SERIES = (
    "replayed_blocks", "catchup_blocks", "checkpoint_height",
    "state_transfer_blocks", "checkpoint_canonical_json_calls",
)


def _commit(framework, identity, n_blocks):
    channel = framework.channel
    target = channel.height() + n_blocks
    while channel.height() < target:
        i = channel.height()
        channel.invoke(
            identity, "data_upload", "add_data", [f"cid-{i}", "a" * 64, "{}"]
        )


def _deploy(n_blocks):
    set_registry(MetricsRegistry())
    framework = Framework(
        FrameworkConfig(
            consensus="bft",
            peers_per_org=2,
            durability=True,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            wal_sync_every=1,
            resilience_seed=0,
        )
    )
    identity = framework.register_source("recovery-cam", tier=SourceTier.TRUSTED)
    _commit(framework, identity, n_blocks)
    return framework, identity


def _parity(channel, peer_name):
    peer = channel.peers[peer_name]
    other = next(
        p for p in channel.peers.values() if p is not peer and p.online
    )
    assert peer.ledger.height == other.ledger.height, (
        f"recovered {peer_name} at height {peer.ledger.height}, "
        f"cluster at {other.ledger.height}"
    )
    assert states_agree(peer, other), f"{peer_name} failed post-recovery parity"


def _steady_checkpoint(framework, identity):
    """One checkpoint of CRASH_PEER covering exactly one interval of blocks,
    outside the commit path: counted under the profiler, then timed without."""
    manager = framework.durability
    peer = framework.channel.peers[CRASH_PEER]
    manager.checkpoint_interval = 0  # cadence off: the checkpoints below are ours
    try:
        manager.checkpoint_peer(peer)
        _commit(framework, identity, CHECKPOINT_INTERVAL)
        with profiling() as profiler:
            manager.checkpoint_peer(peer)
        serialised = [
            s for s in profiler.center_stats() if s.center == "serialize.canonical_json"
        ]
        _commit(framework, identity, CHECKPOINT_INTERVAL)
        t0 = time.perf_counter()
        manager.checkpoint_peer(peer)
        wall_s = time.perf_counter() - t0
    finally:
        manager.checkpoint_interval = CHECKPOINT_INTERVAL
    return {
        "checkpoint_canonical_json_calls": float(sum(s.calls for s in serialised)),
        "checkpoint_serialized_bytes": float(sum(s.n_bytes for s in serialised)),
        "checkpoint_wall_s": wall_s,
    }


def _round(n_blocks):
    framework, identity = _deploy(n_blocks)
    manager = framework.durability

    t0 = time.perf_counter()
    replay = manager.crash_and_recover(CRASH_PEER)
    recovery_wall_s = time.perf_counter() - t0
    assert replay.kind == "wal_replay", replay.detail()
    _parity(framework.channel, CRASH_PEER)

    manager.damage_wal(CRASH_PEER, CORRUPT)
    t0 = time.perf_counter()
    transfer = manager.crash_and_recover(CRASH_PEER)
    state_transfer_wall_s = time.perf_counter() - t0
    assert transfer.kind == "state_transfer", transfer.detail()
    _parity(framework.channel, CRASH_PEER)

    return {
        "replayed_blocks": float(replay.replayed_blocks),
        "catchup_blocks": float(replay.caught_up_blocks),
        "checkpoint_height": float(replay.checkpoint_height),
        "state_transfer_blocks": float(transfer.lag_blocks),
        "recovery_wall_s": recovery_wall_s,
        "state_transfer_wall_s": state_transfer_wall_s,
        **_steady_checkpoint(framework, identity),
    }


def _run(rounds=ROUNDS):
    series = {}
    for prefix, n_blocks in SIZES:
        results = [_round(n_blocks) for _ in range(rounds)]
        for key in results[0]:
            series[prefix + key] = [r[key] for r in results]
        # The recovery shape is seed-determined: every round must agree exactly.
        for key in EXACT_SERIES:
            values = series[prefix + key]
            assert len(set(values)) == 1, f"nondeterministic {prefix + key}: {values}"
    return series


def _check(series):
    # Replay must actually use the checkpoint: never more WAL blocks than
    # one checkpoint interval, and state transfer must fetch the full chain.
    for prefix, n_blocks in SIZES:
        assert series[prefix + "replayed_blocks"][0] <= CHECKPOINT_INTERVAL
        assert series[prefix + "state_transfer_blocks"][0] >= n_blocks
    # A checkpoint costs what changed, not what exists (see the docstring).
    # One call of slack: an interval that completes a posting's entry run
    # writes that run once more than an interval that does not.
    calls = "checkpoint_canonical_json_calls"
    assert series["large_" + calls][0] <= series[calls][0] + 1, (
        f"checkpoint serialisation calls grew with the ledger: "
        f"{series[calls][0]} at {N_BLOCKS} blocks, "
        f"{series['large_' + calls][0]} at {N_BLOCKS_LARGE}"
    )
    small, large = (
        max(series[prefix + "checkpoint_serialized_bytes"]) for prefix, _ in SIZES
    )
    assert large <= 2 * small, (
        f"checkpoint bytes grew {large / small:.1f}x from {N_BLOCKS} to "
        f"{N_BLOCKS_LARGE} blocks — apply the decision rule in the docstring"
    )


def _emit(series, rounds):
    def mean_ms(key):
        return f"{sum(series[key]) / rounds * 1e3:.1f}"

    rows = []
    for prefix, n_blocks in SIZES:
        rows += [
            [n_blocks, "wal_replay", int(series[prefix + "checkpoint_height"][0]),
             int(series[prefix + "replayed_blocks"][0]),
             int(series[prefix + "catchup_blocks"][0]),
             mean_ms(prefix + "recovery_wall_s")],
            [n_blocks, "state_transfer", 0, 0,
             int(series[prefix + "state_transfer_blocks"][0]),
             mean_ms(prefix + "state_transfer_wall_s")],
        ]
    text = format_table(
        f"Recovery time (checkpoint every {CHECKPOINT_INTERVAL}, "
        f"{rounds} round(s))",
        ["blocks", "path", "ckpt height", "replayed", "fetched", "mean ms"],
        rows,
    )
    text += "\n\n" + format_table(
        f"One steady-state checkpoint ({CHECKPOINT_INTERVAL} blocks since the last)",
        ["blocks", "canonical_json calls", "serialised bytes", "mean ms"],
        [
            [n_blocks,
             int(series[prefix + "checkpoint_canonical_json_calls"][0]),
             int(max(series[prefix + "checkpoint_serialized_bytes"])),
             mean_ms(prefix + "checkpoint_wall_s")]
            for prefix, n_blocks in SIZES
        ],
    )
    emit("recovery_time", text)
    emit_json(
        "recovery_time",
        series,
        meta={
            "n_blocks": N_BLOCKS,
            "n_blocks_large": N_BLOCKS_LARGE,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "rounds": rounds,
            "crash_peer": CRASH_PEER,
        },
        seed=0,
    )


def test_recovery_time(benchmark):
    series = benchmark.pedantic(_run, rounds=1, iterations=1)
    _emit(series, ROUNDS)
    _check(series)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="single round for the CI recovery gate",
    )
    args = parser.parse_args(argv)
    rounds = 1 if args.quick else ROUNDS
    series = _run(rounds)
    _emit(series, rounds)
    _check(series)
    print(
        f"gate OK: replayed {int(series['replayed_blocks'][0])} from WAL "
        f"(ckpt {int(series['checkpoint_height'][0])}), state transfer "
        f"fetched {int(series['state_transfer_blocks'][0])} blocks, "
        f"parity held on both paths; a checkpoint serialises "
        f"{int(series['checkpoint_canonical_json_calls'][0])} values at "
        f"{N_BLOCKS} and at {N_BLOCKS_LARGE} blocks"
    )


if __name__ == "__main__":
    main()
