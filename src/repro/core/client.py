"""The client: the paper's Figure 1 entry point for users.

``submit`` walks the full store path ①–⑦: the source signs its data, the
trust engine gates admission, raw bytes go to IPFS (③), and the CID plus
extracted metadata go through endorsement, BFT ordering, and commit onto
the ledger (④–⑦) together with the entry's ``captured`` → ``stored``
provenance events — one transaction — and the source's trust score is
updated from the validators' votes and stored on-chain.

``retrieve``/``query`` walk the retrieval path Ⓐ–Ⓓ: metadata from the
blockchain query executor, raw bytes from the IPFS executor, and integrity
verification of the bytes against the on-chain record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.framework import Framework
from repro.crypto.cid import CID
from repro.errors import (
    DagError,
    FabricError,
    IntegrityError,
    InvalidBlockError,
    ResilienceError,
    StorageError,
    UntrustedSourceError,
)
from repro.fabric import Identity, ValidationCode
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.query import QueryEngine, QueryRow
from repro.trust import SourceTier
from repro.trust.crossval import Observation
from repro.vision import Frame, MetadataExtractor, SimulatedYolo


@dataclass(frozen=True)
class SubmissionReceipt:
    """Everything a source learns back from a successful submission."""

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
        """Submit one data item with its extracted metadata."""
        framework = self.framework
        source_id = self.source_id
        framework.require_registered(source_id)

        with obs_span("client.submit") as root:
            root.set_attr("source_id", source_id)
            root.set_attr("bytes", len(data))

            # ① digital signature over the data (checked by admission).
            with obs_span("submit.sign"):
                data_hash = hashlib.sha256(data).hexdigest()
                signature = self.identity.sign(bytes.fromhex(data_hash))
                if not self.identity.info().public_key.is_valid(
                    bytes.fromhex(data_hash), signature
                ):  # pragma: no cover - defensive
                    raise UntrustedSourceError("submission signature failed self-check")

            # ② admission: trust gate before anything is stored.
            with obs_span("submit.admission"):
                decision = framework.trust.admit(source_id)
                if not decision.admitted:
                    raise UntrustedSourceError(
                        f"source {source_id!r} rejected: {decision.reason}"
                    )
                # Paper §III: discrepancy against trusted sources blocks recording.
                if (
                    framework.config.strict_admission
                    and decision.requires_corroboration
                    and observation is not None
                ):
                    neighbours = framework.trust.cross_validator.neighbours(observation)
                    if neighbours:
                        cross = framework.trust.cross_validate(observation)
                        if cross < framework.config.corroboration_floor:
                            framework.trust.record_validation(
                                source_id, False,
                                valid_votes=0, invalid_votes=len(neighbours),
                                observation=observation,
                            )
                            framework.record_trust_on_chain(source_id)
                            raise UntrustedSourceError(
                                f"source {source_id!r} contradicts {len(neighbours)} trusted "
                                f"observation(s) (cross-validation {cross:.2f} < "
                                f"{framework.config.corroboration_floor}); submission refused"
                            )

            # ③ raw data to IPFS.
            add_result = framework.ipfs.add(data)
            cid = add_result.cid.encode()

            # ④–⑦ metadata + CID + the captured → stored provenance trail
            # through endorsement, ordering (BFT), commit: one transaction.
            metadata = dict(metadata)
            metadata.setdefault("source_id", source_id)
            metadata.setdefault("data_hash", data_hash)
            result = framework.resilient_invoke(
                self.identity, "data_upload", "store", [cid, data_hash, json.dumps(metadata)]
            )
            entry_id = json.loads(result.response)["entry_id"] if result.ok else result.tx_id

            # Trust update from the consensus outcome.
            with obs_span("submit.trust_update"):
                votes = framework.consensus_votes(result.tx_id)
                accepted = result.ok
                valid_votes = sum(1 for v in votes.values() if v)
                invalid_votes = len(votes) - valid_votes
                if framework.trust.tier(source_id) is not SourceTier.TRUSTED:
                    score = framework.trust.record_validation(
                        source_id,
                        accepted,
                        valid_votes=valid_votes or (1 if accepted else 0),
                        invalid_votes=invalid_votes or (0 if accepted else 1),
                        observation=observation,
                    )
                    framework.record_trust_on_chain(source_id)
                else:
                    score = 1.0
                    if observation is not None:
                        framework.trust.observe_trusted(observation)
                framework.observe_validators(result.tx_id, accepted)

            root.set_attr("entry_id", entry_id)
            root.set_attr("accepted", accepted)

        return SubmissionReceipt(
            entry_id=entry_id,
            cid=cid,
            data_hash=data_hash,
            tx_id=result.tx_id,
            block_number=result.block_number,
            validation_code=result.code,
            accepted=accepted,
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

    def retrieve(
        self, entry_id: str, verify: bool = True, allow_degraded: bool = True
    ) -> RetrievalResult:
        """Fetch a record's metadata from the chain and its bytes from IPFS.

        The on-chain ACL (access_control chaincode) is consulted first:
        restricted entries are only served to allowed orgs, and denials are
        written to the immutable access log.

        The off-chain fetch is self-healing: a corrupted replica is
        quarantined and the bytes re-fetched from surviving copies, and if
        the off-chain tier is unreachable entirely the on-chain metadata is
        still served with ``degraded=True`` (set ``allow_degraded=False``
        to fail instead).
        """
        with obs_span("client.retrieve") as root:
            root.set_attr("entry_id", entry_id)
            with obs_span("retrieve.acl"):
                self._enforce_acl(entry_id)
            row = self.engine.get(entry_id, fetch_data=False)
            data, verified, degraded, failure = self._fetch_with_recovery(
                row.record, verify=verify, allow_degraded=allow_degraded
            )
            with obs_span("retrieve.provenance") as sp:
                try:
                    self.framework.resilient_invoke(
                        self.identity,
                        "provenance",
                        "record",
                        [entry_id, "accessed", self.source_id, "{}"],
                    )
                except (FabricError, ResilienceError) as exc:
                    # The read itself succeeded; losing one access-log entry
                    # must not fail it — but it must not vanish silently.
                    sp.set_attr("write_failed", type(exc).__name__)
                    get_registry().counter("provenance_write_failures_total").inc()
            root.set_attr("bytes", len(data or b""))
            if degraded:
                root.set_attr("degraded", True)
            return RetrievalResult(
                record=row.record,
                data=data or b"",
                verified=verified,
                degraded=degraded,
                failure=failure,
            )

    def _fetch_with_recovery(
        self, record: dict, verify: bool, allow_degraded: bool
    ) -> tuple[bytes | None, bool, bool, str | None]:
        """Returns ``(data, verified, degraded, failure)`` for a record.

        ``verified`` is the *proven* outcome: True only when the bytes were
        checked against an on-chain ``data_hash`` — a record with no stored
        hash reads back ``verified=False`` even under ``verify=True``.

        Recovery ladder: a hash mismatch quarantines the corrupted blocks
        cluster-wide and re-fetches from clean replicas; an unreachable
        off-chain tier degrades to metadata-only (when allowed).
        """
        try:
            try:
                data, verified = self.engine.fetch_payload_verified(record, verify=verify)
                return data, verified, False, None
            except (IntegrityError, DagError, InvalidBlockError):
                # IntegrityError: reassembled bytes mismatch the on-chain
                # hash. DagError / InvalidBlockError: a locally stored
                # block failed verification mid-walk. All three mean
                # corruption somewhere in the replica set.
                dropped = self.framework.ipfs.quarantine(CID.parse(record["cid"]))
                if dropped == 0:
                    # No block was corrupt: the on-chain record itself
                    # disagrees with the bytes — refetching cannot help.
                    raise
                get_registry().counter("integrity_refetch_total").inc()
                data, verified = self.engine.fetch_payload_verified(record, verify=verify)
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

        raw = self.framework.channel.query(
            self.identity, "access_control", "check_access",
            [entry_id, self.identity.org],
        )
        if not json.loads(raw)["allowed"]:
            self.framework.channel.invoke(
                self.identity, "access_control", "log_access", [entry_id, "denied"]
            )
            raise AccessDeniedError(
                f"org {self.identity.org!r} is not allowed to read entry {entry_id!r}"
            )

    def restrict(self, entry_id: str, allowed_orgs: list[str]) -> dict:
        """Set the entry's ACL (owner-org only after first set)."""
        result = self.framework.channel.invoke(
            self.identity, "access_control", "set_acl",
            [entry_id, json.dumps(allowed_orgs)],
        )
        return json.loads(result.response)

    def access_log(self, entry_id: str) -> list[dict]:
        raw = self.framework.channel.query(
            self.identity, "access_control", "access_log", [entry_id]
        )
        return json.loads(raw)

    # ------------------------------------------------------------------
    # Provenance + trust inspection
    # ------------------------------------------------------------------

    def provenance(self, entry_id: str) -> list[dict]:
        raw = self.framework.channel.query(
            self.identity, "provenance", "lineage", [entry_id]
        )
        return json.loads(raw)

    def verify_provenance(self, entry_id: str) -> dict:
        raw = self.framework.channel.query(
            self.identity, "provenance", "verify", [entry_id]
        )
        return json.loads(raw)

    def trust_score(self, source_id: str | None = None) -> float:
        return self.framework.trust.score(source_id or self.source_id)

    def on_chain_trust(self, source_id: str | None = None) -> dict:
        raw = self.framework.channel.query(
            self.identity, "trust_score", "get_score", [source_id or self.source_id]
        )
        return json.loads(raw)
