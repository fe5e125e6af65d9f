"""Spans recorded from outside the program, at each layer boundary.

The traced pass wraps bound methods of the *live objects* (instance
attributes that shadow the class's functions), so no file under ``src/`` is
touched and removing the wrappers restores the program exactly. A span is
(name, layer, op id, parent, start, end); spans are kept in memory and
written out when the window ends. A layer's self time is the span's duration
minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
import types
from typing import Any, Callable

NAME, LAYER, OP, PARENT, START, END, ARG = range(7)


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1               # set by the generator before each timed op
        self.recording = False        # spans outside the timed window are dropped
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, obj: Any, attr: str, name: str, layer: str,
             arg: Callable[..., float] | None = None,
             result_arg: Callable[[Any], float] | None = None) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper. ``arg`` may
        compute one number (bytes, items) from the call's arguments,
        ``result_arg`` from what it returned."""
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return inner(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack and threading.get_ident() != self._main:
                # A pool thread working for the op open on the main thread.
                parent = self._main_stack[-1]
            else:
                parent = None
            span = [name, layer, self.op_id, parent, 0.0, 0.0,
                    arg(*args, **kwargs) if arg is not None else 0.0]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if result_arg is not None:
                span[ARG] = result_arg(result)
            return result

        setattr(obj, attr, traced)
        self._installed.append((obj, attr, inner))

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def remove(self) -> None:
        """Undo every wrap: an instance attribute is deleted so the class's
        own method shows again, a module global is put back."""
        for obj, attr, inner in reversed(self._installed):
            if isinstance(obj, types.ModuleType):
                setattr(obj, attr, inner)
            elif attr in vars(obj):
                delattr(obj, attr)
        self._installed = []

    @property
    def installed(self) -> int:
        return len(self._installed)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str, origin: float) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps({
                    "id": i,
                    "name": span[NAME],
                    "layer": span[LAYER],
                    "op": span[OP],
                    "parent": ids.get(id(parent)) if parent is not None else None,
                    "start_us": round((span[START] - origin) * 1e6, 1),
                    "end_us": round((span[END] - origin) * 1e6, 1),
                    "arg": span[ARG],
                }) + "\n")

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """``id(span) -> self seconds``: duration minus the union of the
        children's intervals (clipped to the span; pool-thread children may
        overlap each other)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                children.setdefault(id(parent), []).append((span[START], span[END]))
        out: dict[int, float] = {}
        for span in self.spans:
            start, end = span[START], span[END]
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(id(span), ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[id(span)] = max(0.0, (end - start) - covered)
        return out


def install(rec: Recorder, framework: Any, clients: list, ingestor: Any = None) -> None:
    """Wrap every layer boundary of one live framework (ISSUE 11's list)."""
    def n_bytes(data, *a, **k): return float(len(data))
    def n_payload_bytes(payloads, *a, **k): return float(sum(len(p) for p in payloads))
    def n_items(items, *a, **k): return float(len(items))

    for client in clients:
        rec.wrap(client, "submit", "Client.submit", "core", n_bytes)
        rec.wrap(client, "retrieve", "Client.retrieve", "core")
        rec.wrap(client, "query", "Client.query", "core")
        engine = client.engine
        rec.wrap(engine, "run", "QueryEngine.run", "query")
        rec.wrap(engine, "run_verified", "QueryEngine.run_verified", "query")
        rec.wrap(engine, "get", "QueryEngine.get", "query")
        rec.wrap(engine, "fetch_payload_verified", "QueryEngine.fetch_payload_verified",
                 "query", result_arg=lambda r: float(len(r[0])))
    if ingestor is not None:
        rec.wrap(ingestor, "ingest", "BatchIngestor.ingest", "core", n_items)
        # BatchIngestor hashes its payloads through this module global and
        # uses it for nothing else; without a span of its own that sha256 is
        # a tenth of ingest_large hidden in the root span's self time.
        import repro.core.ingest as ingest_module
        rec.wrap(ingest_module, "parallel_map", "ingest.hash_payloads", "crypto")

    rec.wrap(framework.trust, "admit", "TrustEngine.admit", "trust")
    rec.wrap(framework.trust, "record_validation", "TrustEngine.record_validation", "trust")
    rec.wrap(framework, "record_trust_on_chain", "Framework.record_trust_on_chain", "trust")

    rec.wrap(framework.ipfs, "add", "IpfsCluster.add", "ipfs", n_bytes)
    rec.wrap(framework.ipfs, "add_many", "IpfsCluster.add_many", "ipfs", n_payload_bytes)
    rec.wrap(framework.ipfs, "cat", "IpfsCluster.cat", "ipfs", result_arg=lambda d: float(len(d)))

    channel = framework.channel
    rec.wrap(channel, "endorse", "Channel.endorse", "fabric")
    rec.wrap(channel, "assemble", "Channel.assemble", "fabric")
    rec.wrap(channel, "query", "Channel.query", "fabric.query")
    orderer = channel.orderer
    rec.wrap(orderer, "submit", "orderer.submit", "fabric")
    rec.wrap(orderer, "flush", "orderer.flush", "fabric")
    cluster = getattr(orderer, "cluster", None)
    if cluster is not None:
        rec.wrap(cluster, "submit", "consensus.submit", "consensus")
        rec.wrap(cluster, "run", "consensus.run", "consensus")
    for peer in channel.peers.values():
        rec.wrap(peer, "commit_block", "Peer.commit_block", "fabric")
        index = getattr(peer, "index", None)
        if index is not None:
            rec.wrap(index, "apply_block", "index.apply_block", "index")
            rec.wrap(index, "lookup", "index.lookup", "index")
            rec.wrap(index, "lookup_time_range", "index.lookup_time_range", "index")
            rec.wrap(index, "prove", "index.prove", "index")
            rec.wrap(index, "root", "index.root", "index")
    durability = framework.durability
    if durability is not None:
        rec.wrap(durability, "record_commit", "storage.record_commit", "storage")
        rec.wrap(durability, "record_submit", "storage.record_submit", "storage")
        rec.wrap(durability, "record_batch", "storage.record_batch", "storage")
        rec.wrap(durability, "checkpoint_peer", "storage.checkpoint_peer", "storage")
        # The simulated disks below the manager: the only place bytes written
        # can be counted, since a checkpoint truncates the WAL it covers.
        for store in [*durability.stores.values(), durability.orderer_store]:
            rec.wrap(store, "append", "disk.append", "storage",
                     lambda log, payload: float(len(payload)))
            rec.wrap(store, "write_file", "disk.write_file", "storage",
                     lambda name, content: float(len(content)))
