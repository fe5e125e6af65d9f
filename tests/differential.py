"""Same seed, same bytes: a two-run differential over every replica's ledger.

:func:`differential` runs one scenario in two fresh interpreter processes
and compares what each replica wrote:

* run A under ``PYTHONHASHSEED=0``;
* run B under ``PYTHONHASHSEED=1``, with ``time.time`` / ``time.time_ns``
  shifted by :data:`TIME_OFFSET_S` and ``HOME``, ``TZ`` and ``LANG``
  changed.

So set order, the wall clock, the environment and anything else a process
does not inherit from its inputs differ between the two runs, and the
scenario itself (its seed, its fault schedule) does not. Each child wraps
``Peer.commit_block`` and records, for every commit of every peer in
commit order, the sha256 of each envelope, the header hash, the validation
codes, the state digest after the block and the index epoch root. After
the run it adds each peer's chain head, each PBFT replica's decided-log
digest (``_log_digest``) and, on a durable run, the sha256 of every file
in each node's durable store. :func:`first_difference` names the first
peer, block and field where the two runs part.

A scenario is a chaos scenario's name (:data:`CHAOS`), ``smoke`` (a
durable :class:`~repro.core.Framework` driven through single- and
multi-chunk submits, a batch, retrieves, queries and a crash recovery) or
one of the planted defects the tests use as negative controls
(:data:`PLANTED`)::

    PYTHONPATH=src python -m tests.differential standard smoke --seeds 0 1 2

prints one line per scenario and seed and exits 1 if any run pair differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CHAOS = ("standard", "corruption", "partition", "churn", "crash_recovery")
PLANTED = ("set_order", "random", "uuid", "wall_clock")

# Run B's ambient inputs. Run A keeps the caller's environment apart from
# the hash seed. Run B's wall clock reads about 31 years back, so a branch
# on any instant between then and now goes the other way.
TIME_OFFSET_S = -1_000_000_000.5
RUN_B_ENV = {"PYTHONHASHSEED": "1", "TZ": "Pacific/Chatham", "LANG": "de_DE.UTF-8"}

# Per commit, compared in this order: the bytes the replica was handed
# first, then what it derived from them.
FIELDS = ("envelopes", "header", "codes", "state", "index")


@dataclass(frozen=True)
class Difference:
    """Where two runs of one scenario first disagree."""

    peer: str
    block: int | str
    field: str
    a: object
    b: object

    def __str__(self) -> str:
        return f"{self.peer} block {self.block} {self.field}: run A {self.a!r} != run B {self.b!r}"


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _child_env(run_b: bool, home: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    env["PYTHONHASHSEED"] = "0"
    if run_b:
        env.update(RUN_B_ENV, HOME=home)
    return env


def differential(scenario: str, seed: int = 0) -> Difference | None:
    """Run *scenario* twice, runs A and B side by side in fresh processes
    importing this checkout's ``repro``; the first difference between what
    their replicas wrote."""
    with tempfile.TemporaryDirectory(prefix="differential-home-") as home:
        children = []
        for run_b in (False, True):
            argv = [sys.executable, "-m", "tests.differential", "--child", scenario,
                    "--seeds", str(seed)]
            if run_b:
                argv += ["--time-offset", repr(TIME_OFFSET_S)]
            children.append(subprocess.Popen(
                argv, cwd=REPO, env=_child_env(run_b, home),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        runs = []
        for name, child in zip("AB", children):
            out, err = child.communicate(timeout=600)
            if child.returncode != 0:
                raise RuntimeError(f"run {name} of {scenario} seed {seed} failed:\n{err}")
            runs.append(json.loads(out))
    return first_difference(*runs)


def first_difference(a: dict, b: dict) -> Difference | None:
    """The first commit, then the first final record, where *a* and *b* differ."""
    for x, y in zip(a["commits"], b["commits"]):
        if (x["peer"], x["block"]) != (y["peer"], y["block"]):
            return Difference(x["peer"], x["block"], "commit order",
                              (x["peer"], x["block"]), (y["peer"], y["block"]))
        for field in FIELDS:
            if x[field] == y[field]:
                continue
            if field == "envelopes" and len(x[field]) == len(y[field]):
                i = next(i for i, (p, q) in enumerate(zip(x[field], y[field])) if p != q)
                return Difference(x["peer"], x["block"], f"envelope {i}", x[field][i], y[field][i])
            return Difference(x["peer"], x["block"], field, x[field], y[field])
    if len(a["commits"]) != len(b["commits"]):
        return Difference("*", "*", "commit count", len(a["commits"]), len(b["commits"]))
    if sorted(a["final"]) != sorted(b["final"]):
        return Difference("*", "final", "nodes", sorted(a["final"]), sorted(b["final"]))
    for node in sorted(a["final"]):
        x, y = a["final"][node], b["final"][node]
        for field in sorted(set(x) | set(y)):
            if x.get(field) != y.get(field):
                return Difference(node, "final", field, x.get(field), y.get(field))
    return None


# ---------------------------------------------------------------------------
# Child side: nothing from repro is imported before the clock is shifted
# ---------------------------------------------------------------------------


def _shift_wall_clock(offset: float) -> None:
    import time

    wall, wall_ns = time.time, time.time_ns
    time.time = lambda: wall() + offset
    time.time_ns = lambda: wall_ns() + int(offset * 1e9)


def record(scenario: str, seed: int) -> dict:
    """Run *scenario* in this process; every commit and the final state."""
    from repro.fabric.peer import Peer

    commits: list[dict] = []
    commit_block = Peer.commit_block

    def recording_commit(peer, block):
        annotated = commit_block(peer, block)
        commits.append({
            "peer": peer.name,
            "block": annotated.number,
            "envelopes": [
                hashlib.sha256(tx.envelope_bytes()).hexdigest()
                for tx in annotated.transactions
            ],
            "header": annotated.header.hash(),
            "codes": [code.name for code in annotated.validation_codes],
            "state": peer.world.digest(),
            "index": peer.index.root() if peer.index is not None else None,
        })
        return annotated

    Peer.commit_block = recording_commit
    try:
        channel, durability = _run(scenario, seed)
    finally:
        Peer.commit_block = commit_block
    return {"commits": commits, "final": _final(channel, durability)}


def _final(channel, durability) -> dict:
    final: dict[str, dict] = {}
    for name, peer in channel.peers.items():
        final[name] = {
            "height": peer.ledger.height,
            "head": peer.ledger.last_hash(),
            "state": peer.world.digest(),
        }
    cluster = getattr(channel.orderer, "cluster", None)
    if cluster is not None:
        for name, replica in cluster.replicas.items():
            final[name] = {"log": replica._log_digest(1 << 62)}
    if durability is not None:
        stores = {**durability.stores, "orderer": durability.orderer_store}
        for name, store in stores.items():
            files = {
                f: hashlib.sha256(store.read_file(f)).hexdigest() for f in store.files()
            }
            final.setdefault(name, {})["files"] = files
    return final


def _run(scenario: str, seed: int):
    """Drive *scenario*; the channel it wrote and its durability manager."""
    if scenario in CHAOS:
        from repro.chaos.scenarios import get_scenario

        frameworks = []
        chaos = get_scenario(scenario, seed=seed)
        chaos.on_cycle = lambda cycle, framework, manager: frameworks.append(framework)
        chaos.run()
        framework = frameworks[-1]
        return framework.channel, framework.durability
    if scenario == "smoke":
        framework = _smoke(seed)
        return framework.channel, framework.durability
    if scenario in PLANTED:
        return _planted(scenario), None
    raise SystemExit(f"unknown scenario {scenario!r}")


def _smoke(seed: int):
    from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
    from repro.trust import SourceTier
    from repro.util.rng import rng_for
    from repro.workloads.traffic import IngestItem

    framework = Framework(FrameworkConfig(
        peers_per_org=2, chunk_size=1024, durability=True, checkpoint_interval=4,
    ))
    rng = rng_for(seed, "differential", "smoke")
    camera = framework.register_source("cam-1", tier=SourceTier.TRUSTED)
    source = Client(framework, camera)
    analyst = Client(
        framework, framework.register_source("analyst", tier=SourceTier.TRUSTED)
    )

    def metadata(i: int, cls: str) -> dict:
        return {
            "camera_id": "cam-1",
            "timestamp": 1_000.0 + i,
            "location": {"lat": 12.9, "lon": 77.6},
            "detections": [{"vehicle_class": cls, "confidence": 0.75}],
        }

    entries = [
        source.submit(bytes(rng.bytes(size)), metadata(i, cls)).entry_id
        for i, (size, cls) in enumerate(((512, "car"), (4096, "truck")))
    ]
    ingestor = BatchIngestor(framework)
    ingestor.register(camera)
    report = ingestor.ingest([
        IngestItem(source_id="cam-1", payload=bytes(rng.bytes(1500)),
                   metadata=metadata(i, "bus"), observation=None)
        for i in range(2, 6)
    ])
    entries += report.entry_ids
    for entry_id in entries:
        analyst.retrieve(entry_id)
    analyst.query("vehicle_class = 'bus'")
    analyst.query("camera_id = 'cam-1' AND metadata.timestamp >= 1001 LIMIT 3",
                  fetch_data=True)
    framework.channel.flush()
    framework.durability.crash_and_recover("peer0.org1")
    source.submit(bytes(rng.bytes(700)), metadata(6, "car"))
    return framework


def _planted(defect: str):
    """A solo channel with :class:`PlantedChaincode`: block 0 is clean,
    block 1 carries *defect* (``wall_clock`` stamps every header from the
    wall clock instead, as ledgers did before ledger time was logical)."""
    import time

    from repro.fabric import FabricNetwork, Role
    from repro.fabric.ledger import Block

    build = Block.__dict__["build"]
    if defect == "wall_clock":
        Block.build = classmethod(
            lambda cls, number, previous_hash, transactions, timestamp, rejected=(): (
                build.__func__(cls, number, previous_hash, transactions, time.time(), rejected)
            )
        )
    try:
        net = FabricNetwork()
        channel = net.create_channel("planted", orgs=["org1", "org2"])
        channel.install_chaincode(_planted_chaincode())
        alice = net.register_identity("alice", "org1", role=Role.CLIENT)
        channel.invoke(alice, "planted", "clean", [], endorsing_orgs=["org1"])
        fn = "clean" if defect == "wall_clock" else defect
        channel.invoke(alice, "planted", fn, [], endorsing_orgs=["org1"])
    finally:
        Block.build = build
    return channel


def _planted_chaincode():
    from random import random as draw
    from uuid import uuid4

    from repro.fabric import Chaincode

    class PlantedChaincode(Chaincode):
        """Each function but ``clean`` is one class of nondeterminism."""

        name = "planted"

        def clean(self, stub):
            stub.put_state("tags", b'["alpha","bravo"]')
            return {"ok": True}

        def set_order(self, stub):
            tags = list({"alpha", "bravo", "charlie", "delta", "echo"})
            stub.put_state("tags", json.dumps(tags).encode())
            return {"tags": len(tags)}

        def random(self, stub):
            return {"roll": str(draw())}

        def uuid(self, stub):
            return {"id": str(uuid4())}

    return PlantedChaincode()


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.differential")
    parser.add_argument("scenarios", nargs="*", default=[*CHAOS, "smoke"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--child", metavar="SCENARIO", help=argparse.SUPPRESS)
    parser.add_argument("--time-offset", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        if args.time_offset:
            _shift_wall_clock(args.time_offset)
        json.dump(record(args.child, args.seeds[0]), sys.stdout, sort_keys=True)
        return 0
    failed = 0
    for scenario in args.scenarios:
        for seed in args.seeds:
            diff = differential(scenario, seed)
            failed += diff is not None
            print(f"{scenario} seed {seed}: {'same bytes' if diff is None else diff}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
