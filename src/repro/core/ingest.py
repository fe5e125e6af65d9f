"""Batch ingestion: the high-throughput write path.

``Client.submit`` is synchronous — one transaction, one block — which is
right for interactive use and wrong for a camera uploading a day of
footage. :class:`BatchIngestor` batches the store path: payloads go to
IPFS one after another in input order, metadata transactions queue into
the orderer's batch (``max_batch_size > 1``) where *one* BFT consensus
instance per block decides them all, and one flush commits a whole block
of entries. Each item is the same ``data_upload.store`` transaction
``Client.submit`` sends — record and ``captured`` → ``stored`` trail
together, under the identity of the source that submitted it — and trust
updates coalesce to one score write per source per batch rather than one
per item.

Admission is per item: a non-admitted source's items are skipped and
counted in :attr:`IngestReport.rejected` (nothing of theirs is stored
off-chain), and the batch only fails outright when *every* item was
inadmissible.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.core.framework import Framework
from repro.errors import UntrustedSourceError
from repro.fabric import Identity, ValidationCode
from repro.obs.tracer import span as obs_span
from repro.trust import SourceTier
from repro.util.parallel import parallel_map
from repro.workloads.traffic import IngestItem


@dataclass(frozen=True)
class IngestReport:
    """Throughput accounting for one batch run.

    ``submitted`` counts items that reached the ledger as transactions
    (admitted items); ``rejected`` counts both admission skips and
    transactions the consensus refused. ``blocks`` counts only the blocks
    the data transactions landed in — trust follow-up blocks are
    bookkeeping, not ingest throughput.
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
    """Batched multi-item ingestion for one framework."""

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

        A rejected or unknown source skips *its* items only — nothing of
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
                decision = self.framework.trust.admit(item.source_id)
                if not decision.admitted:
                    skipped.append(item.source_id)
                    first_reason = first_reason or (
                        f"source {item.source_id!r} rejected: {decision.reason}"
                    )
                    sp.set_attr("skipped", "not_admitted")
                    continue
                admitted.append((item, identity))
        if items and not admitted:
            raise UntrustedSourceError(
                f"no admissible item in batch of {len(items)}: {first_reason}"
            )
        return admitted, skipped

    def ingest(self, items: list[IngestItem]) -> IngestReport:
        """Submit all admissible items, flush once, and account for the outcome."""
        framework = self.framework
        channel = framework.channel
        start = time.perf_counter()
        blocks_before = channel.height()

        with obs_span("ingest.batch") as root:
            root.set_attr("items", len(items))

            admitted, skipped = self._admit(items)

            # Off-chain store: chunk + hash every payload, in input order.
            with obs_span("ingest.store") as sp:
                payloads = [item.payload for item, _ in admitted]
                payload_bytes = sum(len(p) for p in payloads)
                sp.set_attr("bytes", payload_bytes)
                add_results = framework.ipfs.add_many(payloads)
                # Through the module global on purpose: the e2e harness wraps
                # it to time this sha256 pass (span ``ingest.hash_payloads``).
                hashes = parallel_map(lambda p: hashlib.sha256(p).hexdigest(), payloads)

            # On-chain metadata (+ provenance trail unless switched off):
            # endorse + queue into the orderer's batch; one flush drives one
            # consensus instance per cut block.
            fn = "store" if self.record_provenance else "add_data"
            tx_meta: list[tuple[str, str]] = []
            for (item, identity), add_result, data_hash in zip(
                admitted, add_results, hashes
            ):
                metadata = dict(item.metadata)
                metadata.setdefault("source_id", item.source_id)
                tx_id = channel.invoke_async(
                    identity,
                    "data_upload",
                    fn,
                    [add_result.cid.encode(), data_hash, json.dumps(metadata)],
                )
                tx_meta.append((tx_id, item.source_id))

            channel.flush()
            # Ingest throughput counts only the blocks the data landed in;
            # the trust follow-ups below cut their own blocks.
            ingest_blocks = channel.height() - blocks_before

            entry_ids: list[str] = []
            rejected = len(skipped)
            outcomes: dict[str, list[bool]] = {}
            for tx_id, source_id in tx_meta:
                result = channel.result(tx_id)
                ok = result.code is ValidationCode.VALID
                outcomes.setdefault(source_id, []).append(ok)
                if ok:
                    entry_ids.append(json.loads(result.response)["entry_id"])
                else:
                    rejected += 1

            # One coalesced trust update per source.
            with obs_span("ingest.trust_update"):
                for source_id, oks in outcomes.items():
                    if framework.trust.tier(source_id) is SourceTier.TRUSTED:
                        continue
                    for ok in oks:
                        framework.trust.record_validation(
                            source_id, ok,
                            valid_votes=1 if ok else 0, invalid_votes=0 if ok else 1,
                        )
                    framework.record_trust_on_chain(source_id)

            root.set_attr("committed", len(entry_ids))
            root.set_attr("rejected", rejected)

        elapsed = time.perf_counter() - start
        return IngestReport(
            submitted=len(tx_meta),
            committed=len(entry_ids),
            rejected=rejected,
            blocks=ingest_blocks,
            payload_bytes=payload_bytes,
            elapsed_s=elapsed,
            entry_ids=tuple(entry_ids),
            skipped_sources=tuple(skipped),
        )
