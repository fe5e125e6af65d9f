"""Batch ingestion: the high-throughput write path.

``Client.submit`` is synchronous — one transaction, one block — which is
right for interactive use and wrong for a camera uploading a day of
footage. :class:`BatchIngestor` batches the store path: payloads go to
IPFS one after another in input order — chunking and hashing each byte
once, for the CID that is the record's one commitment to the payload (no
second payload digest is taken) — metadata transactions queue into
the orderer's batch (``max_batch_size > 1``) where *one* BFT consensus
instance per block decides them all, and one flush commits a whole block
of entries. Each item is the same ``data_upload.store`` transaction
``Client.submit`` sends — one record, which also determines the entry's
``captured`` → ``stored`` provenance, under the identity of the source
that submitted it — and the batch settles trust through
:meth:`Framework.settle_stores`, as a submit does: each item's validator
votes fold into its source's score and the validator pool sees each
decision, while score writes coalesce to one per source per batch. Score
writes cut no block: they ride the next ordering round, normally the next
batch's.

Admission is per item: a non-admitted source's items are skipped and
counted in :attr:`IngestReport.rejected` (nothing of theirs is stored
off-chain), and the batch only fails outright when *every* item was
inadmissible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import orjson

from repro.core.framework import Framework
from repro.errors import TrustError, UntrustedSourceError
from repro.fabric import Identity
from repro.ipfs.unixfs import frozen_payload
from repro.obs.tracer import span as obs_span
from repro.trust.crossval import Observation
# Imported and never called: the e2e harness wraps this module global by
# name (see repro.util.parallel).
from repro.util.parallel import parallel_map  # noqa: F401
from repro.workloads.traffic import IngestItem


@dataclass(frozen=True)
class IngestReport:
    """Throughput accounting for one batch run.

    ``submitted`` counts items that reached the ledger as transactions
    (admitted items); ``rejected`` counts both admission skips and
    transactions the consensus refused. ``blocks`` counts the blocks the
    batch cut; the data transactions land in them together with whatever
    rider writes were queued before the batch (the previous batch's score
    writes, reads' access events).
    """

    submitted: int
    committed: int
    rejected: int
    blocks: int
    payload_bytes: int
    elapsed_s: float
    entry_ids: tuple[str, ...]
    skipped_sources: tuple[str, ...] = ()

    @property
    def tx_per_s(self) -> float:
        return self.submitted / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def mib_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return (self.payload_bytes / (1 << 20)) / self.elapsed_s


@dataclass
class BatchIngestor:
    """Batched multi-item ingestion for one framework.

    ``record_provenance`` is accepted and ignored, so callers that still
    pass it keep working: every store's record carries its provenance.
    """

    framework: Framework
    record_provenance: bool = True
    _identities: dict[str, Identity] = field(default_factory=dict)

    def register(self, identity: Identity) -> None:
        """Make a source identity available for batch submission."""
        self._identities[identity.name] = identity

    def _identity_for(self, source_id: str) -> Identity:
        try:
            return self._identities[source_id]
        except KeyError:
            raise UntrustedSourceError(
                f"source {source_id!r} has no registered identity in this ingestor"
            ) from None

    def _admit(self, items: list[IngestItem]):
        """Per-item admission: returns ``(admitted, skipped_sources)``.

        Each item passes :meth:`Framework.admit`, the gate a submit passes.
        A refused or unknown source skips *its* items only — nothing of
        theirs touches IPFS or the orderer queue, so a bad source can
        neither leak stored payloads nor bleed queued transactions into
        the next block. Raises only when no item at all was admissible.
        """
        admitted: list[tuple[IngestItem, Identity]] = []
        skipped: list[str] = []
        first_reason: str | None = None
        for item in items:
            with obs_span("ingest.item") as sp:
                sp.set_attr("source_id", item.source_id)
                try:
                    identity = self._identity_for(item.source_id)
                except UntrustedSourceError as exc:
                    skipped.append(item.source_id)
                    first_reason = first_reason or str(exc)
                    sp.set_attr("skipped", "no_identity")
                    continue
                try:
                    self.framework.admit(item.source_id, item.observation)
                except TrustError as exc:
                    skipped.append(item.source_id)
                    first_reason = first_reason or str(exc)
                    sp.set_attr("skipped", "not_admitted")
                    continue
                admitted.append((item, identity))
        if items and not admitted:
            raise UntrustedSourceError(
                f"no admissible item in batch of {len(items)}: {first_reason}"
            )
        return admitted, skipped

    def ingest(self, items: list[IngestItem]) -> IngestReport:
        """Submit all admissible items, flush once, and account for the outcome
        (a payload that is not bytes-like raises ``StorageError`` first)."""
        framework = self.framework
        channel = framework.channel
        start = time.perf_counter()
        blocks_before = channel.height()

        with obs_span("ingest.batch") as root:
            root.set_attr("items", len(items))

            admitted, skipped = self._admit(items)

            # Off-chain store: chunk + hash every payload once, in input
            # order; the CID it yields is the on-chain commitment.
            with obs_span("ingest.store") as sp:
                payloads = [frozen_payload(item.payload) for item, _ in admitted]
                payload_bytes = sum(len(p) for p in payloads)
                sp.set_attr("bytes", payload_bytes)
                add_results = framework.ipfs.add_many(payloads)

            # On-chain metadata: endorse + queue into the orderer's batch
            # (the first carries the queued riders); one flush drives one
            # consensus instance per cut block.
            stores: list[tuple[str, str, Observation | None]] = []
            for (item, identity), add_result in zip(admitted, add_results):
                metadata = dict(item.metadata)
                metadata.setdefault("source_id", item.source_id)
                tx_id = channel.invoke_async(
                    identity,
                    "data_upload",
                    "store",
                    [add_result.cid.encode(), json.dumps(metadata)],
                )
                stores.append((item.source_id, tx_id, item.observation))

            channel.flush()
            ingest_blocks = channel.height() - blocks_before

            entry_ids: list[str] = []
            rejected = len(skipped)
            for _, tx_id, _ in stores:
                result = channel.result(tx_id)
                if result.ok:
                    entry_ids.append(orjson.loads(result.response)["entry_id"])
                else:
                    rejected += 1

            # The same settlement as Client.submit's, over the whole batch:
            # one score write per untrusted source, riding the next round.
            with obs_span("ingest.trust_update"):
                framework.settle_stores(stores)

            root.set_attr("committed", len(entry_ids))
            root.set_attr("rejected", rejected)

        elapsed = time.perf_counter() - start
        return IngestReport(
            submitted=len(stores),
            committed=len(entry_ids),
            rejected=rejected,
            blocks=ingest_blocks,
            payload_bytes=payload_bytes,
            elapsed_s=elapsed,
            entry_ids=tuple(entry_ids),
            skipped_sources=tuple(skipped),
        )
