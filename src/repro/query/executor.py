"""Query engine: the paper's hybrid on-chain / off-chain retrieval path.

Figure 1's retrieval flow (Ⓐ–Ⓓ): the user's query goes to the query
processor, which routes the metadata part to the *blockchain query
executor* (a read of a peer's world state — no ordering, no consensus
cost, no signed proposal) and, when raw data is requested, the CID part to
the *database query executor* (an IPFS fetch). Every fetched payload is
verified against the on-chain record — the "verification of retrieved data
against its metadata stored on the blockchain" the paper guarantees — by its
CID, the record's one commitment to the bytes: the IPFS read hashes each
block under it (root, interior nodes, leaves) once against the CID that
names it. Bytes that arrive from another IPFS node are also checked against
their CID in bitswap before they are stored.

:meth:`QueryEngine.get` is the point read: one world-state lookup on the
same reference peer as the query routes below, with the chaincode's
``get_data`` read as its fallback and its ``index``-sanitizer oracle.

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
a record is JSON-decoded into one shared row, reused while the world state
still holds the very value object it was decoded from, and a ``LIMIT``
without ``ORDER BY`` stops the stream at the last row it needs — so a query
costs the rows it examines, and examining a row costs a dict lookup. The
residual runs on no row of a window-only plan: its lookup is the answer.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import orjson

from repro.crypto.cid import CID
from repro.errors import EncodingError, QueryError
from repro.fabric.channel import Channel
from repro.fabric.identity import Identity
from repro.ipfs.cluster import IpfsCluster
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.planner import Plan, plan_query

_DATA_PREFIX = "data:"
_DATA_END = _DATA_PREFIX + "\x7f"

# Decoded ``data:`` records an engine keeps at once (oldest dropped first).
_MAX_DECODED_RECORDS = 4096


@dataclass(frozen=True)
class QueryRow:
    """One result: the on-chain record, optionally joined with raw bytes.

    A metadata-only row is **shared and read-only**, ``record`` included:
    every answer, and every later query that returns the same entry, hands
    out the one row the engine keeps for it. Copy the record before
    changing it (under the ``index`` sanitizer SAN309 reports a mutated
    record on the next query that returns it).

    ``verified`` is True when bytes were fetched: every block under the
    record's CID was hashed against the CID that names it, so the bytes are
    proven to match the on-chain commitment.
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
    rows_filtered: int = 0  # examined records the residual ran on (none if window-only)
    rows_returned: int = 0
    records_decoded: int = 0  # JSON decodes on the state routes (a reuse is none)
    bytes_fetched: int = 0
    # Always 0 (there is no result cache); read by name by the e2e harness.
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


_Filter = Callable[[dict], bool]
_Rows = list[QueryRow]


def _matching(
    candidates: Iterable[QueryRow], matches: _Filter | None, query: Query
) -> tuple[_Rows, int]:
    """``(matched, examined)``: the candidate rows whose record ``matches``
    (every row when ``matches`` is None), and how many were examined.

    Candidates arrive in entry-id order, so with a LIMIT and no ORDER BY the
    first LIMIT matches are the answer and the rest are never examined
    (:meth:`Query.apply_post` still defines the cut; this only stops early).
    """
    stop = query.limit if query.order_by is None else None
    if matches is None:
        matched = list(islice(candidates, stop))
        return matched, len(matched)
    matched: _Rows = []
    examined = 0
    for row in candidates if stop != 0 else ():
        examined += 1
        if matches(row.record):
            matched.append(row)
            if len(matched) == stop:
                break
    return matched, examined


def _route_ids(index, plan: Plan) -> list[str]:
    """The entry ids the plan's route reads, in entry-id order: on a
    window-only plan, exactly those of the answer."""
    route = plan.index_route
    if plan.window:
        return index.lookup_time_range(*plan.window)
    if route.time_range is not None:
        return index.lookup_time_range(*route.time_range)
    return index.lookup(route.dim, route.value)


def _answer(matched: _Rows, query: Query) -> _Rows:
    """:meth:`Query.apply_post` over rows. Unprojected, every answer row is
    the matched row its record came with."""
    if query.order_by is None and query.select is None:
        return matched  # _matching already stopped at the LIMIT
    records = query.apply_post([row.record for row in matched])
    if query.select is not None:
        return [QueryRow(record) for record in records]
    rows = {id(row.record): row for row in matched}
    return [rows[id(record)] for record in records]


@dataclass
class QueryEngine:
    """Routes queries across the blockchain and IPFS executors."""

    channel: Channel
    cluster: IpfsCluster
    identity: Identity
    retrieval_chaincode: str = "data_retrieval"
    stats: QueryStats = field(default_factory=QueryStats)
    # data: key -> (the value object world state handed out, the row of its
    # decoded form). An entry is good only while the peer being read still
    # returns that same object, so a rewritten or deleted key, a recovered
    # peer and a fail-over to another peer all miss and refill untold.
    _records: dict[str, tuple[bytes, QueryRow]] = field(default_factory=dict, repr=False)
    # Callers may drive one engine from several threads; the lock keeps the
    # stats counters exact and guards _records.
    _stats_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- planning -------------------------------------------------------------

    def plan(self, query: Query | str) -> Plan:
        if isinstance(query, str):
            query = parse_query(query)
        return plan_query(query)

    # -- execution ----------------------------------------------------------------

    def run(self, query: Query | str, fetch_data: bool = False) -> list[QueryRow]:
        """Execute a query; optionally join raw IPFS data per row.

        Every run plans and executes afresh, so a repeated text sees each
        block committed since, and under the ``index`` sanitizer every
        state-route answer is checked against :meth:`scan` (SAN309).

        With ``fetch_data=True`` the per-row IPFS payloads are fetched and
        verified one after another, in row order.
        """
        with obs_span("query.run") as sp:
            if isinstance(query, str):
                sp.set_attr("query", query[:80])
            sp.set_attr("fetch_data", fetch_data)
            with obs_span("query.plan"):
                if isinstance(query, str):
                    query = parse_query(query)
                plan = plan_query(query)
            route = plan.index_route
            state = self._execute_state(plan, self.channel.height())
            from_state = state is not None
            used_index = from_state and route is not None
            if route is not None:
                get_registry().counter(
                    "query_index_route_total",
                    {"route": "index" if used_index else "fallback"},
                ).inc()
            matches = plan.residual.matches
            if state is None:
                state = map(QueryRow, self._chain_records())
            elif plan.window:
                matches = None  # the lookup is the answer
            with obs_span("query.filter") as fsp:
                matched, examined = _matching(state, matches, query)
                fsp.set_attr("examined", examined)
            rows = _answer(matched, query)
            if from_state:
                self._check_parity(plan.explain, rows, lambda: self.scan(query))
            if fetch_data:  # a row that carries bytes is not the shared one
                fetch = self.fetch_payload_verified
                rows = [QueryRow(r.record, *fetch(r.record)) for r in rows]
            with self._stats_lock:
                self.stats.queries += 1
                self.stats.rows_scanned += examined
                self.stats.rows_filtered += 0 if matches is None else examined
                self.stats.rows_returned += len(rows)
                if route is not None:
                    if used_index:
                        self.stats.index_hits += 1
                    else:
                        self.stats.index_misses += 1
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
            # Whole bucket postings: a proof binds a posting's every entry.
            dims = [("time", v) for v in index.time_buckets(*route.time_range)]
        else:
            # An unindexed value has nothing to prove: the answer is empty
            # with zero proofs (absence proofs are out of scope).
            dims = [(route.dim, route.value)] if index.has(route.dim, route.value) else []
        proofs = tuple(index.prove(dim, value) for dim, value in dims)
        query = dataclasses.replace(query, select=None)
        matches = None if plan.window else plan.residual.matches
        rows, examined = _matching(
            self._load_rows(peer, _route_ids(index, plan)), matches, query
        )
        matched = [row.record for row in _answer(rows, query)]
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.rows_scanned += examined
            self.stats.rows_filtered += 0 if matches is None else examined
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
        No index, no peer state and no stats; every record is
        decoded afresh."""
        if isinstance(query, str):
            query = parse_query(query)
        matches = query.where.matches
        return query.apply_post([r for r in self._chain_records() if matches(r)])

    def _chain_records(self) -> list[dict]:
        """Every ``data:`` record through one chaincode read, in entry-id
        (key) order."""
        with obs_span("query.chain_read") as sp:
            raw = self.channel.query(self.identity, self.retrieval_chaincode, "list_all", [])
            records = orjson.loads(raw)
            sp.set_attr("rows", len(records))
        return records

    def _index_peer(self, height: int):
        """The channel's reference peer at ``height``
        (:meth:`IndexManager.reference_peer`); None on a channel without
        indexing, where no peer holds an index."""
        indexing = getattr(self.channel, "indexing", None)
        return None if indexing is None else indexing.reference_peer(height)

    def _load_rows(self, peer, entry_ids: Iterable[str]) -> Iterator[QueryRow]:
        """The rows of the live records under ``entry_ids``, each decoded once."""
        get, kept = peer.world.get, self._records
        for entry_id in entry_ids:
            key = _DATA_PREFIX + entry_id
            raw = get(key)
            if raw is not None:
                hit = kept.get(key)
                yield hit[1] if hit is not None and hit[0] is raw else self._row(key, raw)

    def _row(self, key: str, raw: bytes) -> QueryRow:
        """``raw``'s shared row — from ``_records`` when ``raw`` is the object
        it holds for ``key`` (same object, same bytes), else decoded and kept."""
        hit = self._records.get(key)
        if hit is not None and hit[0] is raw:
            return hit[1]
        row = QueryRow(orjson.loads(raw))
        with self._stats_lock:
            self.stats.records_decoded += 1
            if key not in self._records and len(self._records) >= _MAX_DECODED_RECORDS:
                del self._records[next(iter(self._records))]
            self._records[key] = (raw, row)
        return row

    def _execute_state(self, plan: Plan, height: int) -> Iterator[QueryRow] | None:
        """The candidates straight from an in-sync peer's world state, a
        lazy stream of rows in entry-id order; None = fall back to the
        chaincode scan.

        With a route: a posting lookup plus point reads of the matching
        records (``entry_ids`` come back sorted). Without one: the peer's
        whole ``data:`` key range, which is in entry-id order by key. No
        chaincode scan and no per-query proposal signing either way.
        """
        peer = self._index_peer(height)
        if peer is None:
            return None
        if plan.index_route is None:
            rows = peer.world.range(_DATA_PREFIX, _DATA_END)
            return (self._row(key, raw) for key, raw in rows)
        with obs_span("query.index_read") as sp:
            entry_ids = _route_ids(peer.index, plan)
            sp.set_attr("rows", len(entry_ids))
        return self._load_rows(peer, entry_ids)

    def _check_parity(
        self, describe: Callable[[], str], rows: _Rows, reference: Callable[[], list[dict]]
    ) -> None:
        """SAN309: under the ``index`` sanitizer, require a state-route
        answer byte-identical to ``reference()``, the chaincode's answer
        (:meth:`scan` for a query, ``get_data`` for a point read). Its
        records are decoded afresh, so a shared record a caller changed
        shows here too."""
        sanitizer = self.channel.sanitizer
        if sanitizer is None or "index" not in sanitizer.modes:
            return
        sanitizer.check_query_parity(describe(), [r.record for r in rows], reference())

    # -- point lookups ---------------------------------------------------------------

    def get(self, entry_id: str, fetch_data: bool = False) -> QueryRow:
        """One record by entry id, read the way :meth:`run` reads: a point
        read of the reference peer's world state, answered with the shared
        row (read-only, see :class:`QueryRow`). When no peer is in sync, or
        its state has no such key, the retrieval chaincode's ``get_data``
        answers instead, so an unknown id raises its
        :class:`~repro.errors.ChaincodeError`."""
        with obs_span("query.get") as sp:
            sp.set_attr("entry_id", entry_id)
            row = None
            peer = self._index_peer(self.channel.height())
            if peer is not None:
                with obs_span("query.state_read"):
                    row = next(self._load_rows(peer, (entry_id,)), None)
            if row is None:
                row = QueryRow(self._chain_get(entry_id))
            else:
                self._check_parity(
                    lambda: f"get {entry_id!r}", [row],
                    lambda: [self._chain_get(entry_id, peer.name)],
                )
            if fetch_data:
                row = QueryRow(row.record, *self.fetch_payload_verified(row.record))
            return row

    def _chain_get(self, entry_id: str, peer: str | None = None) -> dict:
        """The record through the chaincode's ``get_data`` read: a signed
        proposal, decoded afresh."""
        return orjson.loads(
            self.channel.query(
                self.identity, self.retrieval_chaincode, "get_data", [entry_id], peer=peer
            )
        )

    # -- the off-chain executor ----------------------------------------------------------

    def fetch_payload(self, record: dict) -> bytes:
        """Fetch the raw bytes for a record from IPFS and verify integrity."""
        data, _ = self.fetch_payload_verified(record)
        return data

    def fetch_payload_verified(self, record: dict) -> tuple[bytes, bool]:
        """Fetch a record's bytes and report whether integrity was *proven*.

        Returns ``(data, verified)``. The record's ``cid`` is the on-chain
        commitment: the IPFS read hashes every block under it — root,
        interior nodes and leaves — against the CID that names it, so bytes
        come back only when they match, and ``verified`` is True. A rotted
        or substituted block
        raises :class:`~repro.errors.DagError`. A missing *or malformed*
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
            return data, True
