"""Query engine: the paper's hybrid on-chain / off-chain retrieval path.

Figure 1's retrieval flow (Ⓐ–Ⓓ): the user's query goes to the query
processor, which routes the metadata part to the *blockchain query
executor* (a chaincode read on a peer — no ordering, no consensus cost)
and, when raw data is requested, the CID part to the *database query
executor* (an IPFS fetch). Every fetched payload is verified against the
on-chain record twice over — the CID must hash-match the bytes (content
addressing) and the stored SHA-256 ``data_hash`` must match as well — the
"verification of retrieved data against its metadata stored on the
blockchain" the paper guarantees.

When the plan carries an :class:`~repro.query.planner.IndexRoute`, the
metadata half is served from a peer's block-incremental authenticated
index (:mod:`repro.index`): a posting lookup plus direct world-state point
reads, sublinear in chain height. A plan with no route reads the same
peer's ``data:`` key range directly. When no peer is in sync, one chaincode
``list_all`` read filtered by the plan's residual answers instead; that
full scan is also the reference answer (:meth:`QueryEngine.scan`) the
``index`` sanitizer checks every state-route answer against byte-for-byte.
:meth:`QueryEngine.run_verified` additionally attaches Merkle membership
proofs a light client can check against a trusted epoch root without
replaying the chain.

Both state routes hand out candidates as a lazy stream in entry-id order:
a record is JSON-decoded once and reused while the world state still holds
the very value object it was decoded from, and a ``LIMIT`` without
``ORDER BY`` stops the stream at the last row it needs — so a query costs
the rows it examines, and examining a row costs a dict lookup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.crypto.cid import CID
from repro.errors import EncodingError, IntegrityError, QueryError
from repro.fabric.channel import Channel
from repro.fabric.identity import Identity
from repro.ipfs.cluster import IpfsCluster
from repro.obs.metrics import get_registry
from repro.obs.prof import profiled
from repro.obs.tracer import span as obs_span
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.planner import IndexRoute, Plan, plan_query

_DATA_PREFIX = "data:"
_DATA_END = _DATA_PREFIX + "\x7f"

# Decoded ``data:`` records an engine keeps at once (oldest dropped first).
_MAX_DECODED_RECORDS = 4096


@dataclass(frozen=True)
class QueryRow:
    """One result: the on-chain record, optionally joined with raw bytes.

    ``record`` is **shared and read-only**: every row, every cached result
    and every later query that returns the same entry hand out the one
    decoded dict the engine keeps for it. Copy before changing it (under
    the ``index`` sanitizer SAN309 reports a mutated record on the next
    query that returns it).

    ``verified`` is only True when the fetched bytes were actually checked
    against an on-chain ``data_hash`` — a record with no stored hash comes
    back ``verified=False`` even under ``verify=True``, never silently
    passing (the CID content-address check still ran either way).
    """

    record: dict
    data: bytes | None = None
    verified: bool = False

    @property
    def entry_id(self) -> str:
        return self.record["entry_id"]

    @property
    def cid(self) -> str:
        return self.record["cid"]


@dataclass
class QueryStats:
    queries: int = 0
    rows_scanned: int = 0   # candidate records examined (a LIMIT stops early)
    rows_returned: int = 0
    records_decoded: int = 0  # JSON decodes on the state routes (a reuse is none)
    bytes_fetched: int = 0
    integrity_checks: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    index_hits: int = 0     # queries answered from the authenticated index
    index_misses: int = 0   # index-routable queries that fell back to scan


@dataclass(frozen=True)
class VerifiedAnswer:
    """An indexed query answer plus the proofs that authenticate it.

    ``records`` are the matching on-chain records (metadata only, no
    projection — proofs bind full record bytes); ``proofs`` are the
    posting proofs covering them; ``root`` is the epoch digest they verify
    against at chain ``height``. :meth:`verify` is the light-client check:
    no chain access, just the proofs, the records, and a trusted root.
    """

    records: tuple[dict, ...]
    proofs: tuple  # tuple[PostingProof, ...]
    root: str
    height: int

    def verify(self, trusted_root: str | None = None) -> int:
        from repro.index import verify_answer_records

        return verify_answer_records(
            list(self.records), self.proofs, trusted_root or self.root
        )


def _matching(candidates: Iterable[dict], plan: Plan, query: Query) -> tuple[list[dict], int]:
    """``(matched, examined)``: the candidates the plan's residual accepts.

    Candidates arrive in entry-id order, so with a LIMIT and no ORDER BY the
    first LIMIT matches are the answer and the rest are never examined
    (:meth:`Query.apply_post` still defines the cut; this only stops early).
    """
    stop = query.limit if query.order_by is None else None
    matches = plan.residual.matches
    matched: list[dict] = []
    examined = 0
    if stop == 0:
        return matched, examined
    for record in candidates:
        examined += 1
        if matches(record):
            matched.append(record)
            if len(matched) == stop:
                break
    return matched, examined


@dataclass
class QueryEngine:
    """Routes queries across the blockchain and IPFS executors."""

    channel: Channel
    cluster: IpfsCluster
    identity: Identity
    retrieval_chaincode: str = "data_retrieval"
    stats: QueryStats = field(default_factory=QueryStats)
    # Metadata-only results cached per query text, valid while the chain
    # height is unchanged (any new block may contain new matching records).
    cache_enabled: bool = True
    # The cache is bounded: at most this many distinct query texts, FIFO
    # eviction (deterministic — dict preserves insertion order).
    cache_max_entries: int = 256
    _cache: dict[str, tuple[int, list["QueryRow"]]] = field(default_factory=dict)
    # data: key -> (the value object world state handed out, its decoded
    # form). An entry is good only while the peer being read still returns
    # that same object, so a rewritten or deleted key, a recovered peer and
    # a fail-over to another peer all miss and refill without being told.
    _records: dict[str, tuple[bytes, dict]] = field(default_factory=dict, repr=False)
    # Callers may drive one engine from several threads; the lock keeps the
    # stats counters exact and guards _cache / _records.
    _stats_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- planning -------------------------------------------------------------

    def plan(self, query: Query | str) -> Plan:
        if isinstance(query, str):
            query = parse_query(query)
        return plan_query(query)

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        query: Query | str,
        fetch_data: bool = False,
        verify: bool = True,
    ) -> list[QueryRow]:
        """Execute a query; optionally join raw IPFS data per row.

        Metadata-only results (``fetch_data=False``) are cached per query
        text while the chain height is unchanged — reads are the hot path
        of the paper's retrieval story, and an unchanged chain cannot
        change their answer. The cache entry is keyed on the chain height
        observed *before* execution: a block committed mid-query makes the
        stored snapshot stale against the new height, so the next run
        re-executes instead of serving pre-commit rows as fresh. The cache
        holds at most ``cache_max_entries`` query texts (FIFO eviction).

        With ``fetch_data=True`` the per-row IPFS payloads are fetched and
        verified one after another, in row order.
        """
        with obs_span("query.run") as sp:
            if isinstance(query, str):
                sp.set_attr("query", query[:80])
            sp.set_attr("fetch_data", fetch_data)
            # Snapshot the height first: the result set reflects the chain
            # as of *at most* this height, and the cache must not claim
            # freshness beyond it.
            height_snapshot = self.channel.height()
            cache_key = None
            if self.cache_enabled and not fetch_data and isinstance(query, str):
                cache_key = query
                with self._stats_lock:
                    cached = self._cache.get(cache_key)
                    if cached is not None and cached[0] == height_snapshot:
                        self.stats.cache_hits += 1
                        self.stats.queries += 1
                        sp.set_attr("cache_hit", True)
                        return list(cached[1])
            with obs_span("query.plan"):
                if isinstance(query, str):
                    query = parse_query(query)
                plan = plan_query(query)
            route = plan.index_route
            candidates = self._execute_state(route, height_snapshot)
            from_state = candidates is not None
            used_index = from_state and route is not None
            if route is not None:
                get_registry().counter(
                    "query_index_route_total",
                    {"route": "index" if used_index else "fallback"},
                ).inc()
            if candidates is None:
                candidates = self._chain_records()
            with obs_span("query.filter") as fsp:
                matched, examined = _matching(candidates, plan, query)
                fsp.set_attr("examined", examined)
            matched = query.apply_post(matched)
            if from_state:
                self._check_index_parity(query, plan, matched)
            if fetch_data:
                rows = []
                for record in matched:
                    data, verified = self.fetch_payload_verified(record, verify=verify)
                    rows.append(QueryRow(record=record, data=data, verified=verified))
            else:
                rows = [QueryRow(record=record) for record in matched]
            with self._stats_lock:
                self.stats.queries += 1
                self.stats.rows_scanned += examined
                self.stats.rows_returned += len(rows)
                if route is not None:
                    if used_index:
                        self.stats.index_hits += 1
                    else:
                        self.stats.index_misses += 1
                if cache_key is not None:
                    self._cache_store(cache_key, height_snapshot, rows)
            sp.set_attr("rows", len(rows))
            sp.set_attr("index_route", used_index)
            return rows

    def run_verified(self, query: Query | str) -> VerifiedAnswer:
        """Execute an index-routable query and attach membership proofs.

        The answer's posting proofs authenticate every returned record
        against the index's current epoch root — a light client verifies
        with :meth:`VerifiedAnswer.verify` (optionally against a root it
        trusts out-of-band, e.g. one journaled in the WAL or reported by
        the explorer) without replaying the chain. ``ORDER BY``/``LIMIT``
        apply; ``SELECT`` projection does not (proofs bind whole records).
        """
        if isinstance(query, str):
            query = parse_query(query)
        plan = plan_query(query)
        route = plan.index_route
        if route is None:
            raise QueryError(
                "query has no index-routable predicate; membership proofs "
                "need an equality or time-window predicate on an indexed field"
            )
        height = self.channel.height()
        peer = self._index_peer(height)
        if peer is None:
            raise QueryError(
                "no online peer serves the authenticated index at the "
                "current chain height"
            )
        index = peer.index
        if route.time_range is not None:
            dims = [("time", v) for v in index.time_buckets(*route.time_range)]
            entry_ids = index.lookup_time_range(*route.time_range)
        else:
            # An unindexed value has nothing to prove: the answer is empty
            # with zero proofs (absence proofs are out of scope).
            dims = [(route.dim, route.value)] if index.has(route.dim, route.value) else []
            entry_ids = index.lookup(route.dim, route.value)
        proofs = tuple(index.prove(dim, value) for dim, value in dims)
        query = dataclasses.replace(query, select=None)
        matched, examined = _matching(self._load_records(peer, entry_ids), plan, query)
        matched = query.apply_post(matched)
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.rows_scanned += examined
            self.stats.rows_returned += len(matched)
            self.stats.index_hits += 1
        return VerifiedAnswer(
            records=tuple(matched),
            proofs=proofs,
            root=index.root(),
            height=index.height,
        )

    # -- the blockchain executors ---------------------------------------------

    def scan(self, query: Query | str) -> list[dict]:
        """The reference answer: the chaincode's ``list_all`` full scan,
        filtered by the residual, then ``ORDER BY`` / ``LIMIT`` / ``SELECT``.
        No index, no peer state, no cache and no stats; every record is
        decoded afresh."""
        if isinstance(query, str):
            query = parse_query(query)
        matched, _ = _matching(self._chain_records(), plan_query(query), query)
        return query.apply_post(matched)

    def _chain_records(self) -> list[dict]:
        """Every ``data:`` record through one chaincode read, in entry-id
        (key) order."""
        with obs_span("query.chain_read") as sp:
            raw = self.channel.query(self.identity, self.retrieval_chaincode, "list_all", [])
            records = json.loads(raw)
            sp.set_attr("rows", len(records))
        return records

    def _index_peer(self, height: int):
        """An online peer whose ledger *and* index are at ``height``."""
        indexing = getattr(self.channel, "indexing", None)
        if indexing is not None:
            return indexing.reference_peer(height)
        for name in sorted(self.channel.peers):
            peer = self.channel.peers[name]
            if (
                peer.online
                and peer.ledger.height == height
                and getattr(peer, "index", None) is not None
                and peer.index.height == height
            ):
                return peer
        return None

    def _load_records(self, peer, entry_ids: Iterable[str]) -> Iterator[dict]:
        """The live records under ``entry_ids``, decoded at most once each."""
        get = peer.world.get
        for entry_id in entry_ids:
            key = _DATA_PREFIX + entry_id
            raw = get(key)
            if raw is not None:
                yield self._decoded(key, raw)

    def _decoded(self, key: str, raw: bytes) -> dict:
        """``raw`` decoded — from ``_records`` when ``raw`` is the object it
        holds for ``key`` (same object, same bytes), else decoded and kept."""
        hit = self._records.get(key)
        if hit is not None and hit[0] is raw:
            return hit[1]
        record = json.loads(raw)
        with self._stats_lock:
            self.stats.records_decoded += 1
            if key not in self._records and len(self._records) >= _MAX_DECODED_RECORDS:
                del self._records[next(iter(self._records))]
            self._records[key] = (raw, record)
        return record

    def _execute_state(self, route: IndexRoute | None, height: int) -> Iterator[dict] | None:
        """Candidates straight from an in-sync peer's world state, as a lazy
        stream in entry-id order; None = fall back to the chaincode scan.

        With a route: a posting lookup plus point reads of the matching
        records (``entry_ids`` come back sorted). Without one: the peer's
        whole ``data:`` key range, which is in entry-id order by key. No
        chaincode scan and no per-query proposal signing either way.
        """
        peer = self._index_peer(height)
        if peer is None:
            return None
        if route is None:
            rows = peer.world.range(_DATA_PREFIX, _DATA_END)
            return (self._decoded(key, raw) for key, raw in rows)
        with obs_span("query.index_read") as sp:
            if route.time_range is not None:
                entry_ids = peer.index.lookup_time_range(*route.time_range)
            else:
                entry_ids = peer.index.lookup(route.dim, route.value)
            sp.set_attr("rows", len(entry_ids))
        return self._load_records(peer, entry_ids)

    def _check_index_parity(self, query: Query, plan: Plan, matched: list[dict]) -> None:
        """SAN309: under the ``index`` sanitizer, require a byte-identical
        final answer from :meth:`scan`. Its records are decoded afresh, so a
        shared record a caller changed shows here too."""
        from repro.analysis.runtime import active_sanitizer

        sanitizer = active_sanitizer()
        if sanitizer is None or "index" not in sanitizer.modes:
            return
        sanitizer.check_query_parity(plan.explain(), matched, self.scan(query))

    # -- cache (callers hold _stats_lock) ----------------------------------------

    def _cache_store(self, key: str, height: int, rows: list[QueryRow]) -> None:
        if key not in self._cache:
            while len(self._cache) >= max(1, self.cache_max_entries):
                oldest = next(iter(self._cache))
                del self._cache[oldest]
                self.stats.cache_evictions += 1
                get_registry().counter("query_cache_evictions_total").inc()
        self._cache[key] = (height, list(rows))

    # -- point lookups ---------------------------------------------------------------

    def get(self, entry_id: str, fetch_data: bool = False, verify: bool = True) -> QueryRow:
        with obs_span("query.get") as sp:
            sp.set_attr("entry_id", entry_id)
            raw = self.channel.query(
                self.identity, self.retrieval_chaincode, "get_data", [entry_id]
            )
            record = json.loads(raw)
            data, verified = None, False
            if fetch_data:
                data, verified = self.fetch_payload_verified(record, verify=verify)
            return QueryRow(record=record, data=data, verified=verified)

    # -- the off-chain executor ----------------------------------------------------------

    def fetch_payload(self, record: dict, verify: bool = True) -> bytes:
        """Fetch the raw bytes for a record from IPFS and verify integrity."""
        data, _ = self.fetch_payload_verified(record, verify=verify)
        return data

    def fetch_payload_verified(
        self, record: dict, verify: bool = True
    ) -> tuple[bytes, bool]:
        """Fetch a record's bytes and report whether integrity was *proven*.

        Returns ``(data, verified)``. ``verified`` is True only when the
        record carried an on-chain ``data_hash`` and the bytes matched it;
        a record with no stored hash yields ``verified=False`` rather than
        pretending the check passed. A hash mismatch raises
        :class:`~repro.errors.IntegrityError`. A missing *or malformed*
        ``cid`` field raises a typed :class:`~repro.errors.QueryError`
        (never a raw parse exception).
        """
        with obs_span("query.fetch") as sp:
            try:
                cid = CID.parse(record["cid"])
            except KeyError:
                raise QueryError("record has no CID") from None
            except (EncodingError, ValueError, TypeError, AttributeError) as exc:
                # EncodingError: undecodable CID text; TypeError/Attribute-
                # Error: a non-string cid field (e.g. a number or null).
                raise QueryError(
                    f"record for entry {record.get('entry_id')!r} has a "
                    f"malformed CID: {exc}"
                ) from exc
            data = self.cluster.cat(cid)
            sp.set_attr("bytes", len(data))
            with self._stats_lock:
                self.stats.bytes_fetched += len(data)
            if not verify:
                return data, False
            with obs_span("query.verify") as vsp:
                stored_hash = record.get("data_hash")
                if stored_hash is None:
                    # Nothing on-chain to verify against: the CID check
                    # (content addressing) ran, but the paper's metadata
                    # cross-check could not — surface that honestly.
                    vsp.set_attr("missing_data_hash", True)
                    return data, False
                with self._stats_lock:
                    self.stats.integrity_checks += 1
                with profiled("crypto.hash", n_bytes=len(data)):
                    actual = hashlib.sha256(data).hexdigest()
                if actual != stored_hash:
                    raise IntegrityError(
                        f"data for entry {record.get('entry_id')} does not match the "
                        f"on-chain hash (expected {stored_hash[:12]}…, got {actual[:12]}…)"
                    )
                return data, True
