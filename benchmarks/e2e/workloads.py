"""The closed-loop generator: set-up, warm-up, timed window, answer checks.

One caller, one thread: the next operation is issued only after the previous
one returned and was checked. The program is driven through its public API
only (``repro.core.{Framework, Client, BatchIngestor}`` and ``client.engine``)
and keeps its own pools at their defaults. ``repro.net`` delay is simulated
time, so every latency here is processor time, not network time.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.errors import ReproError
from repro.fabric.snapshot import state_digest
from repro.obs.metrics import get_registry
from repro.storage.codec import block_to_doc
from repro.trust import SourceTier
from repro.util.serialization import canonical_json
from repro.workloads.traffic import IngestItem

import schedule
import spec
import tracing
from calib import SpeedSampler
from schedule import Op, Oracle, Plan

CONFIGS = {
    "submit_small": {},
    "ingest_large": {"max_batch_size": spec.INGEST_BATCH_ITEMS},
    "query_static": {"max_batch_size": 64},
    "mixed_durable": {"durability": True},
}
SETUP_REPEATS = {"submit_small": 25, "query_static": 3, "mixed_durable": 3}
PRELOAD_BATCH = 64
READ_BACK = 16          # stored entries re-read after a write-only window


@dataclass
class Site:
    """One live deployment and the handles the generator drives it through."""

    framework: Framework
    sources: list[Client]
    analyst: Client
    ingestor: BatchIngestor
    oracle: Oracle
    window_height: int = 0      # ledger height when the timed window opened

    @property
    def clients(self) -> list[Client]:
        return self.sources + [self.analyst]


@dataclass
class Window:
    """What one timed window measured (raw, before normalisation)."""

    shapes: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    heights: list[int] = field(default_factory=list)     # after each op; traced pass only
    blocks: list[int] = field(default_factory=list)      # cut by each op; traced pass only
    wall_s: float = 0.0


class Run:
    """One workload, one process: builds, warms up, measures and checks."""

    def __init__(self, plan: Plan, traced: bool) -> None:
        self.plan = plan
        self.sampler = SpeedSampler(plan.workload)
        self.recorder = tracing.Recorder() if traced else None
        self.window = Window()
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []                    # normalised seconds, one per build
        self.payloads: dict[int, bytes] = {}
        self.sha256: dict[int, str] = {}                 # ordinal -> payload digest (oracle)
        self.stored_bytes = 0
        self.user_bytes = 0
        self.ledger_bytes = 0           # one peer's encoded blocks cut inside the windows
        self.postings = 0               # one peer's index keys at the end
        self.deltas: dict[str, float] = {}   # the program's own counters, over the windows
        self.profile: dict[str, tuple[int, float, int]] = {}   # center -> calls, excl s, bytes
        self.setup_wall_s = 0.0

    # -- set-up --------------------------------------------------------------

    def make_payloads(self, ordinals: range) -> None:
        for k in ordinals:
            data = schedule.payload(self.plan.seed, self.plan.records[k])
            self.payloads[k] = data
            self.sha256[k] = hashlib.sha256(data).hexdigest()

    def build(self) -> Site:
        """Stand the deployment up and preload it; only the time inside the
        program's calls counts as set-up, divided by the speed index."""
        plan = self.plan
        sampler = self.sampler
        oracle = Oracle(plan.records, sha256=self.sha256)
        preload = [
            IngestItem(
                source_id=r.source_id, payload=self.payloads[r.ordinal],
                metadata=r.metadata(), observation=None,
            )
            for r in plan.records[:plan.preload]
        ]
        # Set-up time is the time inside the program's calls, piece by piece,
        # each piece divided by the speed index of its own moment.
        pieces: list[tuple[float, float]] = []      # (start, seconds)
        sampler.sample(3)

        t = time.perf_counter()
        framework = Framework(FrameworkConfig(**CONFIGS[plan.workload]))
        identities = [
            framework.register_source(
                f"src-{i}",
                tier=SourceTier.TRUSTED if i < schedule.N_TRUSTED else SourceTier.UNTRUSTED,
            )
            for i in range(schedule.N_SOURCES)
        ]
        sources = [Client(framework, identity) for identity in identities]
        analyst = Client(
            framework, framework.register_source("analyst", tier=SourceTier.TRUSTED)
        )
        ingestor = BatchIngestor(framework)
        loader = BatchIngestor(framework, record_provenance=False)
        for identity in identities:
            ingestor.register(identity)
            loader.register(identity)
        pieces.append((t, time.perf_counter() - t))

        for lo in range(0, len(preload), PRELOAD_BATCH):
            batch = preload[lo:lo + PRELOAD_BATCH]
            t = time.perf_counter()
            report = loader.ingest(batch)
            pieces.append((t, time.perf_counter() - t))
            sampler.sample(3)
            if report.committed != len(batch):
                self.failures.append(f"preload batch at {lo}: {report.committed}/{len(batch)} committed")
            for k, entry_id in zip(range(lo, lo + len(batch)), report.entry_ids):
                oracle.note_stored(k, entry_id)

        sampler.sample(3)
        indices = sampler.indices([start + took / 2 for start, took in pieces])
        self.setups.append(sum(took / index for (_, took), index in zip(pieces, indices)))
        return Site(framework, sources, analyst, ingestor, oracle)

    def build_repeated(self) -> Site:
        """Set up several times and keep the last: ``setup_s`` is a median."""
        site = None
        for _ in range(SETUP_REPEATS[self.plan.workload]):
            site = None
            gc.collect()
            site = self.build()
        return site

    # -- one operation -------------------------------------------------------

    def prepare(self, site: Site, op: Op) -> tuple[Callable[[], Any], Callable[[Any], str | None]]:
        """Returns ``(call, check)``: ``call`` is the one timed call into the
        program; ``check`` (untimed) names what is wrong with its answer."""
        oracle = site.oracle
        engine = site.analyst.engine
        if op.kind == "submit":
            record = self.plan.records[op.ordinal]
            data, metadata = self.payloads[op.ordinal], record.metadata()
            client = site.sources[record.source]

            def check_submit(receipt: Any) -> str | None:
                if not receipt.ok:
                    return f"receipt not ok ({receipt.validation_code})"
                if receipt.data_hash != oracle.sha256[op.ordinal]:
                    return "receipt data_hash differs from the payload's sha256"
                oracle.note_stored(op.ordinal, receipt.entry_id)
                return None

            return (lambda: client.submit(data, metadata)), check_submit

        if op.kind == "ingest":
            ordinals = range(op.ordinal, op.ordinal + spec.INGEST_BATCH_ITEMS)
            items = [
                IngestItem(
                    source_id=self.plan.records[k].source_id, payload=self.payloads[k],
                    metadata=self.plan.records[k].metadata(), observation=None,
                )
                for k in ordinals
            ]

            def check_ingest(report: Any) -> str | None:
                if report.committed != len(items) or report.rejected:
                    return f"{report.committed}/{len(items)} committed, {report.rejected} rejected"
                for k, entry_id in zip(ordinals, report.entry_ids):
                    oracle.note_stored(k, entry_id)
                return None

            return (lambda: site.ingestor.ingest(items)), check_ingest

        if op.kind == "retrieve":
            entry_id = oracle.entry_ids[op.ordinal]
            return (
                lambda: site.analyst.retrieve(entry_id),
                lambda result: self._check_payload(
                    oracle, entry_id, result.data, result.verified, result.degraded
                ),
            )

        if op.shape == "point":
            entry_id = oracle.entry_ids[op.ordinal]
            return (
                lambda: engine.get(entry_id, fetch_data=True),
                lambda row: self._check_payload(oracle, entry_id, row.data, row.verified),
            )

        expected = oracle.expected(op.expect)
        if op.shape == "verified":

            def check_verified(answer: Any) -> str | None:
                if answer.verify() != len(answer.records):
                    return "verify() did not cover every record"
                return self._check_ids([r["entry_id"] for r in answer.records], expected)

            return (lambda: engine.run_verified(op.text)), check_verified

        if op.shape == "join":

            def check_join(rows: list) -> str | None:
                for row in rows:
                    wrong = self._check_payload(oracle, row.entry_id, row.data, row.verified)
                    if wrong:
                        return wrong
                return self._check_ids([row.entry_id for row in rows], expected)

            return (lambda: site.analyst.query(op.text, fetch_data=True)), check_join

        return (
            lambda: site.analyst.query(op.text),
            lambda rows: self._check_ids([row.entry_id for row in rows], expected),
        )

    @staticmethod
    def _check_ids(got: list[str], expected: set[str]) -> str | None:
        if len(got) != len(set(got)):
            return "duplicate rows"
        if set(got) != expected:
            return f"{len(got)} rows, oracle has {len(expected)}"
        return None

    @staticmethod
    def _check_payload(oracle: Oracle, entry_id: str, data: bytes | None,
                       verified: bool, degraded: bool = False) -> str | None:
        if degraded or not verified:
            return f"verified={verified} degraded={degraded}"
        ordinal = oracle.by_entry.get(entry_id)
        if ordinal is None:
            return f"unknown entry {entry_id[:12]}"
        if hashlib.sha256(data or b"").hexdigest() != oracle.sha256[ordinal]:
            return "payload does not hash to the oracle's value"
        return None

    def run_ops(self, site: Site, ops: list[Op], timed: bool) -> None:
        window = self.window
        recorder = self.recorder
        sampler = self.sampler
        channel = site.framework.channel
        height = channel.height()
        for op in ops:
            if op.kind == "ingest" and op.ordinal not in self.payloads:
                self.make_payloads(range(op.ordinal, op.ordinal + spec.INGEST_BATCH_ITEMS))
            call, check = self.prepare(site, op)
            if timed and recorder is not None:
                recorder.op_id = len(window.latencies)
            start = time.perf_counter()
            try:
                out = call()
            except ReproError as exc:   # a failing op is a result to report, not a crash
                out, wrong = None, f"{type(exc).__name__}: {exc}"
            else:
                wrong = None
            latency = time.perf_counter() - start
            if wrong is None:
                wrong = check(out)
            if op.kind == "ingest":
                for k in range(op.ordinal, op.ordinal + spec.INGEST_BATCH_ITEMS):
                    del self.payloads[k]
            if timed:
                self.attempted += 1
                if wrong is not None:
                    self.failures.append(f"{op.shape} #{len(window.latencies)}: {wrong}")
                window.shapes.append(op.shape)
                window.starts.append(start)
                window.latencies.append(latency)
                if recorder is not None:
                    window.blocks.append(channel.height() - height)
                    height = channel.height()
                    window.heights.append(height)
            elif wrong is not None:
                self.failures.append(f"warm-up {op.shape}: {wrong}")
            sampler.after_op(latency)

    # -- after the window ----------------------------------------------------

    def check_site(self, site: Site, read_back: bool) -> None:
        """Replica agreement, chain audit and (write-only workloads) a
        read-back of stored entries; each check is one attempted operation."""
        framework = site.framework
        peers = list(framework.channel.peers.values())
        self.attempted += 2
        digests = {state_digest(p.world) for p in peers}
        heads = {(p.ledger.height, p.ledger.last_hash()) for p in peers}
        if len(digests) != 1 or len(heads) != 1:
            self.failures.append("peers disagree on state digest or chain head")
        try:
            for peer in peers:
                peer.ledger.verify_chain()
        except ReproError as exc:
            self.failures.append(f"verify_chain: {exc}")
        if read_back:
            rng = random.Random(self.plan.seed)
            stored = site.oracle.stored
            for k in rng.sample(stored, min(READ_BACK, len(stored))):
                self.attempted += 1
                entry_id = site.oracle.entry_ids[k]
                try:
                    row = site.analyst.engine.get(entry_id, fetch_data=True)
                    wrong = self._check_payload(site.oracle, entry_id, row.data, row.verified)
                except ReproError as exc:
                    wrong = f"{type(exc).__name__}: {exc}"
                if wrong:
                    self.failures.append(f"read-back of record {k}: {wrong}")

    def check_recovery(self, site: Site) -> None:
        """One amnesia crash of a peer must lose nothing."""
        framework = site.framework
        self.attempted += 1
        name = sorted(framework.channel.peers)[0]
        try:
            framework.durability.crash_and_recover(name)
        except ReproError as exc:
            self.failures.append(f"crash_and_recover: {type(exc).__name__}: {exc}")
            return
        peers = list(framework.channel.peers.values())
        if len({state_digest(p.world) for p in peers}) != 1 or len(
            {(p.ledger.height, p.index.root()) for p in peers}
        ) != 1:
            self.failures.append("recovered peer differs from the survivors")

    def account(self, site: Site) -> None:
        """Bytes the deployment holds at the end (all nodes, all peers)."""
        framework = site.framework
        peers = list(framework.channel.peers.values())
        ipfs = sum(n.blockstore.total_bytes() for n in framework.ipfs.nodes.values())
        # Peers hold the same chain (check_site): encode one, count all.
        block_bytes = [len(canonical_json(block_to_doc(b))) for b in peers[0].ledger.blocks()]
        ledger = sum(block_bytes) * len(peers)
        disk = 0
        if framework.durability is not None:
            stores = list(framework.durability.stores.values())
            stores.append(framework.durability.orderer_store)
            for store in stores:
                disk += sum(store.log_bytes(log, synced_only=False) for log in store.logs())
                disk += sum(len(store.read_file(name)) for name in store.files())
        self.stored_bytes += ipfs + ledger + disk
        self.user_bytes += site.oracle.user_bytes

        self.ledger_bytes += sum(block_bytes[site.window_height:])
        self.postings += len(peers[0].index.postings)

    # -- the four workloads --------------------------------------------------

    def run(self) -> None:
        plan = self.plan
        began = time.perf_counter()
        if plan.workload == "ingest_large":
            self._run_rounds()
            return
        self.make_payloads(range(len(plan.records)))
        site = self.build_repeated()
        self.setup_wall_s = time.perf_counter() - began
        self.run_ops(site, plan.warmup, timed=False)
        self._timed(site, plan.ops)
        self.check_site(site, read_back=plan.workload == "submit_small")
        self.account(site)
        if plan.workload == "mixed_durable":
            self.check_recovery(site)

    def _run_rounds(self) -> None:
        """ingest_large: every round starts on a fresh Framework, built outside
        the timed window, and the previous one is dropped first — the process
        reuses the memory it already touched instead of growing."""
        plan = self.plan
        per_round = spec.INGEST_ROUND_BATCHES
        for r in range(-1, len(plan.ops) // per_round):
            gc.collect()
            began = time.perf_counter()
            site = self.build()
            self.setup_wall_s += time.perf_counter() - began
            if r < 0:
                self.run_ops(site, plan.warmup, timed=False)
                site = None
                continue
            self._timed(site, plan.ops[r * per_round:(r + 1) * per_round])
            self.check_site(site, read_back=True)
            self.account(site)
            site = None

    def _timed(self, site: Site, ops: list[Op]) -> None:
        recorder = self.recorder
        profiler = None
        site.window_height = site.framework.channel.height()
        before = counters(site)
        if recorder is not None:
            tracing.install(recorder, site.framework, site.clients, site.ingestor)
            recorder.recording = True
            profiler = obs.enable_profiler()
        self.sampler.sample(3)
        began = time.perf_counter()
        try:
            self.run_ops(site, ops, timed=True)
        finally:
            self.window.wall_s += time.perf_counter() - began
            if recorder is not None:
                obs.disable_profiler()
                recorder.recording = False
                recorder.remove()
        self.sampler.sample(3)
        for name, value in counters(site).items():
            self.deltas[name] = self.deltas.get(name, 0) + value - before[name]
        if profiler is not None:
            for stat in profiler.center_stats():
                calls, excl, n_bytes = self.profile.get(stat.center, (0, 0.0, 0))
                self.profile[stat.center] = (
                    calls + stat.calls, excl + stat.exclusive_s, n_bytes + stat.n_bytes
                )


def counters(site: Site) -> dict[str, float]:
    """Cumulative counts from the program's public accessors."""
    framework = site.framework
    orderer = framework.channel.orderer
    out = {
        "blocks": framework.channel.height(),
        "blocks_cut": orderer.blocks_cut,
        "txs_ordered": orderer.txs_ordered,
        "batches_ordered": orderer.batches_ordered,
        "consensus_messages": orderer.consensus_messages,
        "ipfs_blocks": framework.ipfs.stat().total_blocks,
        "user_bytes": site.oracle.user_bytes,
        "retries": sum(
            value for key, value in get_registry().snapshot()["counters"].items()
            if "retries_total" in key
        ),
    }
    stats = site.analyst.engine.stats
    for name in ("queries", "rows_scanned", "rows_returned", "cache_hits",
                 "cache_evictions", "index_hits", "index_misses"):
        out[f"query.{name}"] = getattr(stats, name)
    durability = framework.durability
    out["wal_records"] = durability.stats.wal_records if durability else 0
    out["checkpoints"] = durability.stats.checkpoints if durability else 0
    return out
