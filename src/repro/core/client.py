"""The client: the paper's Figure 1 entry point for users.

``submit`` walks the full store path ①–⑦: the source signs its data, the
trust engine gates admission, raw bytes go to IPFS (③), and the CID plus
extracted metadata go through endorsement, BFT ordering, and commit onto
the ledger (④–⑦) as one ``data:`` record — one transaction, one block.
That record determines the entry's ``captured`` → ``stored`` provenance
events, which are read from it rather than written beside it. The
source's trust score is updated from the validators' votes, and its
on-chain snapshot rides the next ordering round.

``retrieve``/``query`` walk the retrieval path Ⓐ–Ⓓ: metadata from the
blockchain query executor, raw bytes from the IPFS executor, and integrity
verification of the bytes against the on-chain record's CID, block by
block. The CID is the record's one commitment to the bytes; ``submit``
hashes the payload once more only for its receipt's ``data_hash``. A read
cuts no block: its ``accessed`` provenance event (and an ACL denial's log
entry) is queued and rides the next ordering round, where the entry's first
written event chains on the record's ``stored`` event. The inspection
calls (``provenance``, ``verify_provenance``, ``access_log``,
``on_chain_trust``) drain that queue first, so a caller always sees its
own reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import orjson

from repro.core.framework import Framework
from repro.crypto.cid import CID
from repro.errors import (
    DagError,
    InvalidBlockError,
    ResilienceError,
    StorageError,
)
from repro.fabric import Identity, ValidationCode
from repro.ipfs.unixfs import frozen_payload
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.query import QueryEngine, QueryRow
from repro.trust.crossval import Observation
from repro.vision import Frame, MetadataExtractor, SimulatedYolo


@dataclass(frozen=True)
class SubmissionReceipt:
    """Everything a source learns back from a successful submission.

    ``cid`` is the on-chain commitment to the payload; ``data_hash`` is the
    payload's flat sha-256, computed for the receipt and not stored."""

    entry_id: str
    cid: str
    data_hash: str
    tx_id: str
    block_number: int
    validation_code: ValidationCode
    accepted: bool
    trust_score: float

    @property
    def ok(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class RetrievalResult:
    """What a retrieval returns.

    ``degraded=True`` means the off-chain bytes were unreachable but the
    on-chain metadata is served anyway (``data`` is empty and ``failure``
    says why) — availability degrades before the read fails outright.
    """

    record: dict
    data: bytes
    verified: bool
    degraded: bool = False
    failure: str | None = None

    @property
    def cid(self) -> str:
        return self.record["cid"]


class Client:
    """A data source's (or analyst's) handle on the framework."""

    def __init__(self, framework: Framework, identity: Identity) -> None:
        self.framework = framework
        self.identity = identity
        self.engine = QueryEngine(
            channel=framework.channel,
            cluster=framework.ipfs,
            identity=identity,
        )
        self._detector = SimulatedYolo()
        self._extractor = MetadataExtractor()

    @property
    def source_id(self) -> str:
        return self.identity.name

    # ------------------------------------------------------------------
    # Store path (Figure 1 ①–⑦)
    # ------------------------------------------------------------------

    def submit(
        self,
        data: bytes,
        metadata: dict,
        observation: Observation | None = None,
    ) -> SubmissionReceipt:
        """Submit one data item with its extracted metadata; a payload that
        is not bytes-like raises :class:`StorageError` before anything runs."""
        data = frozen_payload(data)
        framework = self.framework
        source_id = self.source_id

        with obs_span("client.submit", {"source_id": source_id, "bytes": len(data)}) as root:
            # ① SHA-256 of the data, for the receipt only: the on-chain
            # commitment is the CID that step ③ computes.
            with obs_span("submit.sign"):
                data_hash = hashlib.sha256(data).hexdigest()

            # ② admission: trust gate before anything is stored.
            with obs_span("submit.admission"):
                framework.admit(source_id, observation)

            # ③ raw data to IPFS.
            add_result = framework.ipfs.add(data)
            cid = add_result.cid.encode()

            # ④–⑦ metadata + CID through endorsement, ordering (BFT),
            # commit: one transaction, whose record is also the entry's
            # captured → stored provenance.
            metadata = dict(metadata)
            metadata.setdefault("source_id", source_id)
            result = framework.resilient_invoke(
                self.identity, "data_upload", "store", [cid, json.dumps(metadata)]
            )
            entry_id = orjson.loads(result.response)["entry_id"] if result.ok else result.tx_id

            # Trust update from the consensus outcome.
            with obs_span("submit.trust_update"):
                framework.settle_stores(((source_id, result.tx_id, observation),))
                score = framework.trust.score(source_id)

            root.set_attr("entry_id", entry_id)
            root.set_attr("accepted", result.ok)

        return SubmissionReceipt(
            entry_id=entry_id,
            cid=cid,
            data_hash=data_hash,
            tx_id=result.tx_id,
            block_number=result.block_number,
            validation_code=result.code,
            accepted=result.ok,
            trust_score=score,
        )

    def submit_frame(self, frame: Frame) -> SubmissionReceipt:
        """Vision-pipeline convenience: detect, extract metadata, submit."""
        detections = self._detector.detect(frame)
        record = self._extractor.extract(frame, detections)
        observation = self._extractor.to_observation(record)
        # The frame came from this client's device, whatever camera id the
        # renderer used; attribute it to the submitting source.
        metadata = record.to_dict()
        metadata["source_id"] = self.source_id
        observation = Observation(
            source_id=self.source_id,
            lat=observation.lat,
            lon=observation.lon,
            timestamp=observation.timestamp,
            counts=observation.counts,
        )
        return self.submit(frame.to_bytes(), metadata, observation=observation)

    # ------------------------------------------------------------------
    # Retrieval path (Figure 1 Ⓐ–Ⓓ)
    # ------------------------------------------------------------------

    def retrieve(self, entry_id: str, allow_degraded: bool = True) -> RetrievalResult:
        """Fetch a record's metadata from the chain and its bytes from IPFS.

        The on-chain ACL (access_control chaincode) is consulted first, the
        read's one signed proposal: it decides for the signed reader's org,
        restricted entries are only served to allowed orgs, and denials are
        written to the immutable access log.
        The record then comes from a peer's world state
        (:meth:`QueryEngine.get`); ``RetrievalResult.record`` is that shared
        read-only record, so copy it before changing it. A served read queues its
        ``accessed`` provenance event; neither write cuts a block of its
        own — both ride the next ordering round.

        The off-chain fetch is self-healing: a corrupted replica is
        quarantined and the bytes re-fetched from surviving copies, and if
        the off-chain tier is unreachable entirely the on-chain metadata is
        still served with ``degraded=True`` (set ``allow_degraded=False``
        to fail instead).
        """
        with obs_span("client.retrieve", {"entry_id": entry_id}) as root:
            with obs_span("retrieve.acl"):
                self._enforce_acl(entry_id)
            row = self.engine.get(entry_id, fetch_data=False)
            data, verified, degraded, failure = self._fetch_with_recovery(
                row.record, allow_degraded=allow_degraded
            )
            with obs_span("retrieve.provenance"):
                self.framework.record_access(self.identity, entry_id)
            data = data or b""
            root.set_attr("bytes", len(data))
            if degraded:
                root.set_attr("degraded", True)
        # Built outside the span, as submit's receipt is: the span times the
        # retrieval, not the packaging of its answer.
        return RetrievalResult(row.record, data, verified, degraded, failure)

    def _fetch_with_recovery(
        self, record: dict, allow_degraded: bool
    ) -> tuple[bytes | None, bool, bool, str | None]:
        """Returns ``(data, verified, degraded, failure)`` for a record.

        ``verified`` is the *proven* outcome: True when every block under
        the record's on-chain CID was hashed against the CID naming it.

        Recovery ladder: a block that fails its hash quarantines the
        corrupted blocks cluster-wide and re-fetches from clean replicas; an
        unreachable off-chain tier degrades to metadata-only (when allowed).
        """
        try:
            try:
                data, verified = self.engine.fetch_payload_verified(record)
                return data, verified, False, None
            except (DagError, InvalidBlockError):
                # A stored block — root, interior node or leaf — failed
                # its hash mid-walk: corruption somewhere in the replica set.
                dropped = self.framework.ipfs.quarantine(CID.parse(record["cid"]))
                if dropped == 0:
                    # Every block hashes right, yet the DAG is no file:
                    # the record names other content — refetching cannot help.
                    raise
                get_registry().counter("integrity_refetch_total").inc()
                data, verified = self.engine.fetch_payload_verified(record)
                return data, verified, False, None
        except (StorageError, ResilienceError) as exc:
            if not allow_degraded:
                raise
            get_registry().counter("degraded_reads_total").inc()
            return None, False, True, f"{type(exc).__name__}: {exc}"

    def query(self, text: str, fetch_data: bool = False) -> list[QueryRow]:
        return self.engine.run(text, fetch_data=fetch_data)

    def get_metadata(self, entry_id: str) -> dict:
        return self.engine.get(entry_id).record

    # ------------------------------------------------------------------
    # Access control
    # ------------------------------------------------------------------

    def _enforce_acl(self, entry_id: str) -> None:
        from repro.errors import AccessDeniedError

        allowed = self.framework.channel.query(
            self.identity, "access_control", "check_access", [entry_id]
        )
        if allowed != "true":
            self.framework.log_denied_access(self.identity, entry_id)
            raise AccessDeniedError(
                f"org {self.identity.org!r} is not allowed to read entry {entry_id!r}"
            )

    def restrict(self, entry_id: str, allowed_orgs: list[str]) -> dict:
        """Set the entry's ACL (owner-org only after first set)."""
        result = self.framework.channel.invoke(
            self.identity, "access_control", "set_acl",
            [entry_id, json.dumps(allowed_orgs)],
        )
        return orjson.loads(result.response)

    def _drained_read(self, chaincode: str, fn: str, arg: str):
        """A chaincode read once the rider queue is drained, parsed."""
        self.framework.riders.drain()
        return orjson.loads(self.framework.channel.query(self.identity, chaincode, fn, [arg]))

    def access_log(self, entry_id: str) -> list[dict]:
        return self._drained_read("access_control", "access_log", entry_id)

    # ------------------------------------------------------------------
    # Provenance + trust inspection
    # ------------------------------------------------------------------

    def provenance(self, entry_id: str) -> list[dict]:
        return self._drained_read("provenance", "lineage", entry_id)

    def verify_provenance(self, entry_id: str) -> dict:
        return self._drained_read("provenance", "verify", entry_id)

    def trust_score(self, source_id: str | None = None) -> float:
        return self.framework.trust.score(source_id or self.source_id)

    def on_chain_trust(self, source_id: str | None = None) -> dict:
        return self._drained_read("trust_score", "get_score", source_id or self.source_id)
