"""LedgerExplorer: the Hyperledger-Explorer half of the paper's testbed.

The paper watches its network through Grafana *and* Hyperledger Explorer;
:mod:`repro.obs` built the Grafana half (spans, metrics, exporters). This
module is the Explorer half: a read-only API over a live channel that can

* browse blocks and transactions with their validation codes,
* reconstruct a data entry's provenance trail **from the ledger itself**
  (the transactions' write sets), independently of the world-state copy
  the provenance chaincode serves — the two must agree on an honest peer,
* chart a source's trust-score trajectory from the state history DB,
* run a full integrity audit: the chain audit of :mod:`repro.fabric.audit`
  (block numbering, header hash links, per-block Merkle roots,
  creator/endorsement signatures, world-state replay, replica parity — the
  same checks ``BlockStore.verify_chain`` raises on and the ledger sanitizer
  files as SAN302–305/307, reported here as they are), plus two sections of
  its own: the peers' index epochs and (when given the IPFS cluster) hash
  verification of every off-chain block each data entry references —
  pinpointing the exact block/tx/node that is wrong.

Everything here reads committed state only; the explorer never signs,
orders, or writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.fabric import audit
from repro.fabric.audit import AuditFinding
from repro.fabric.channel import Channel
from repro.fabric.ledger import Block
from repro.fabric.peer import Peer
from repro.fabric.tx import ValidationCode
from repro.fabric.worldstate import composite_prefix_range

_DATA_PREFIX = "data:"
_TRUST_PREFIX = "trust:"
_PROV_INDEX = "prov"


@dataclass
class AuditReport:
    """Outcome of :meth:`LedgerExplorer.audit_chain`."""

    blocks_checked: int = 0
    txs_checked: int = 0
    state_keys_checked: int = 0
    offchain_files_checked: int = 0
    offchain_blocks_checked: int = 0
    index_epochs_checked: int = 0
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "blocks_checked": self.blocks_checked,
            "txs_checked": self.txs_checked,
            "state_keys_checked": self.state_keys_checked,
            "offchain_files_checked": self.offchain_files_checked,
            "offchain_blocks_checked": self.offchain_blocks_checked,
            "index_epochs_checked": self.index_epochs_checked,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render_lines(self) -> list[str]:
        lines = [
            f"audit      : {'PASS' if self.ok else 'FAIL'}",
            f"on-chain   : {self.blocks_checked} blocks, {self.txs_checked} txs, "
            f"{self.state_keys_checked} state keys replayed",
            f"off-chain  : {self.offchain_files_checked} files, "
            f"{self.offchain_blocks_checked} blocks hash-verified",
            f"index      : {self.index_epochs_checked} epoch digests verified",
        ]
        for finding in self.findings:
            where = " ".join(
                f"{k}={v}"
                for k, v in finding.to_dict().items()
                if k not in ("check", "detail")
            )
            lines.append(f"  !! {finding.check} {where}: {finding.detail}")
        return lines


class LedgerExplorer:
    """Read-only ledger browsing, provenance reconstruction, and auditing
    over one channel (plus, optionally, its off-chain IPFS cluster)."""

    def __init__(self, channel: Channel, ipfs=None) -> None:
        self.channel = channel
        self.ipfs = ipfs

    # -- reference state ---------------------------------------------------------

    def reference_peer(self) -> Peer:
        """The first online peer at chain height — the copy reads come from."""
        height = self.channel.height()
        for peer in self.channel.peers.values():
            if peer.online and peer.ledger.height == height:
                return peer
        raise ObservabilityError("no online peer at chain height to explore")

    # -- block / tx browsing -----------------------------------------------------

    def height(self) -> int:
        return self.channel.height()

    def block_view(self, number: int) -> dict:
        """One block as a JSON-friendly dict, validation codes included."""
        peer = self.reference_peer()
        return self._block_dict(peer.ledger.block(number), getattr(peer, "index", None))

    def blocks(self, start: int = 0, limit: int | None = None) -> list[dict]:
        peer = self.reference_peer()
        ledger = peer.ledger
        index = getattr(peer, "index", None)
        numbers = range(max(start, ledger.base_height), ledger.height)
        if limit is not None:
            numbers = numbers[:limit]
        return [self._block_dict(ledger.block(n), index) for n in numbers]

    @staticmethod
    def _block_dict(block: Block, index=None) -> dict:
        txs = []
        for i, tx in enumerate(block.transactions):
            code = (
                block.validation_codes[i].value
                if block.validation_codes
                else ValidationCode.VALID.value
            )
            txs.append(
                {
                    "tx_id": tx.tx_id,
                    "chaincode": tx.proposal.chaincode,
                    "fn": tx.proposal.fn,
                    "creator": tx.proposal.creator.name,
                    "org": tx.proposal.creator.org,
                    "code": code,
                }
            )
        view = {
            "number": block.number,
            "hash": block.header.hash(),
            "previous_hash": block.header.previous_hash,
            "data_hash": block.header.data_hash,
            "timestamp": block.header.timestamp,
            "tx_count": len(block.transactions),
            "transactions": txs,
        }
        if index is not None:
            # The secondary-index epoch root this block advanced the peer's
            # authenticated index to (None for pre-index blocks).
            view["index_epoch"] = index.epochs.get(block.number)
        return view

    def tx_view(self, tx_id: str) -> dict:
        """One transaction: proposal, outcome, rwset, endorsers."""
        block, tx, code = self.reference_peer().ledger.find_tx(tx_id)
        return {
            "tx_id": tx.tx_id,
            "block": block.number,
            "code": code.value,
            "chaincode": tx.proposal.chaincode,
            "fn": tx.proposal.fn,
            "args": list(tx.proposal.args),
            "creator": tx.proposal.creator.name,
            "org": tx.proposal.creator.org,
            "response": tx.response,
            "reads": [r.to_dict() for r in tx.rwset.reads],
            "writes": [w.key for w in tx.rwset.writes],
            "endorsers": [e.endorser.name for e in tx.endorsements],
        }

    # -- Explorer-style overview -------------------------------------------------

    def summary(self) -> dict:
        """The channel overview ``repro.fabric.monitor.channel_summary``
        historically produced (same shape, now served by the explorer)."""
        peers = {}
        tx_by_code: dict[str, int] = {}
        reference = None
        for name, peer in self.channel.peers.items():
            peers[name] = {
                "org": peer.org,
                "height": peer.ledger.height,
                "state_keys": len(peer.world),
                "online": peer.online,
                "txs_valid": peer.stats.txs_valid,
                "txs_invalid": peer.stats.txs_invalid,
            }
            if reference is None and peer.online:
                reference = peer
        if reference is not None:
            for block in reference.ledger.blocks():
                for code in block.validation_codes or ():
                    tx_by_code[code.value] = tx_by_code.get(code.value, 0) + 1
        return {
            "channel": self.channel.name,
            "height": self.channel.height(),
            "orgs": sorted({p.org for p in self.channel.peers.values()}),
            "chaincodes": self.channel.chaincode_names(),
            "collections": self.channel.collections.names(),
            "tx_by_code": dict(sorted(tx_by_code.items())),
            "peers": peers,
        }

    # -- data entries -------------------------------------------------------------

    def entry_ids(self) -> list[str]:
        world = self.reference_peer().world
        return [
            key[len(_DATA_PREFIX):]
            for key, _ in world.range(_DATA_PREFIX, _DATA_PREFIX + "\x7f")
        ]

    def entry(self, entry_id: str) -> dict:
        raw = self.reference_peer().world.get(_DATA_PREFIX + entry_id)
        if raw is None:
            raise ObservabilityError(f"no data entry {entry_id!r} on the ledger")
        return json.loads(raw)

    # -- provenance ---------------------------------------------------------------

    def provenance_trail(self, entry_id: str) -> list[dict]:
        """The entry's provenance chain, reconstructed from the *ledger*.

        Every valid transaction that recorded an event for the entry — a
        ``data_upload.store`` (two events in one transaction) or a bare
        ``provenance.record`` — wrote the full event under the entry's
        composite lineage key; reading those writes out of the committed
        blocks rebuilds the exact chain the chaincode's ``lineage`` query
        serves from world state — including each event's actor, which PR 3
        pinned to the submitting source.
        """
        prefix, _ = composite_prefix_range(_PROV_INDEX, [entry_id])
        events: list[dict] = []
        ledger = self.reference_peer().ledger
        for block in ledger.blocks():
            for tx in audit.valid_txs(block):
                for write in tx.rwset.writes:
                    if write.key.startswith(prefix) and write.value is not None:
                        events.append(json.loads(write.value))
        return sorted(events, key=lambda e: e["seq"])

    def lineage(self, entry_id: str) -> list[dict]:
        """The same chain as served from world state (the chaincode's view)."""
        start, end = composite_prefix_range(_PROV_INDEX, [entry_id])
        world = self.reference_peer().world
        return [json.loads(value) for _, value in world.range(start, end)]

    # -- trust timelines ----------------------------------------------------------

    def trust_timeline(self, source_id: str) -> list[dict]:
        """Every on-chain trust-score write for a source, oldest first."""
        out = []
        for entry in self.reference_peer().world.history(_TRUST_PREFIX + source_id):
            if entry.value is None:
                continue
            record = json.loads(entry.value)
            record["tx_id"] = entry.tx_id
            record["block"] = entry.version.block
            out.append(record)
        return out

    def trust_sources(self) -> list[str]:
        world = self.reference_peer().world
        return [
            key[len(_TRUST_PREFIX):]
            for key, _ in world.range(_TRUST_PREFIX, _TRUST_PREFIX + "\x7f")
        ]

    # -- the audit ----------------------------------------------------------------

    def audit_chain(self, offchain: bool = True) -> AuditReport:
        """Full integrity audit; findings pinpoint what is wrong.

        On-chain, the checks of :mod:`repro.fabric.audit` over the reference
        peer: block numbering, header hash links and Merkle roots, creator
        and endorsement signatures of every VALID transaction, the replay of
        all valid write sets against its world state, and head-hash +
        state-digest parity across the online peers. Then the index epochs,
        and off-chain (when the explorer holds the IPFS cluster) every block
        of every data entry's DAG re-hashed against its CID on every node
        that holds it — silent bit rot names the node and the rotten block.
        """
        report = AuditReport()
        peer = self.reference_peer()
        ledger = peer.ledger
        blocks = ledger.blocks()
        msp = self.channel.msp_registry
        findings = report.findings

        report.blocks_checked = len(blocks)
        findings.extend(audit.check_chain(ledger))
        for block in blocks:
            report.txs_checked += len(audit.valid_txs(block))
            findings.extend(audit.check_signatures(block, msp))
        report.state_keys_checked = len(audit.replay_writes(blocks))
        findings.extend(audit.check_state(ledger, peer.world))
        findings.extend(
            audit.check_peers(p for p in self.channel.peers.values() if p.online)
        )
        self._audit_index(peer, blocks, report)
        if offchain and self.ipfs is not None:
            self._audit_offchain(peer, report)
        return report

    def _audit_index(self, peer: Peer, blocks: list[Block], report: AuditReport) -> None:
        """Verify the peers' authenticated index epochs.

        Cross-peer: online peers that indexed the same block number must
        have recorded the same epoch digest. Independent: when the
        reference ledger holds the full chain (no snapshot bootstrap), a
        fresh index replays every block and must reproduce each recorded
        epoch — the auditor trusts nothing but the blocks themselves.
        """
        indexes = {
            name: p.index
            for name, p in self.channel.peers.items()
            if p.online and getattr(p, "index", None) is not None
        }
        if not indexes:
            return
        numbers: set[int] = set()
        for index in indexes.values():
            numbers.update(index.epochs)
        for n in sorted(numbers):
            recorded = {
                name: index.epochs[n]
                for name, index in sorted(indexes.items())
                if n in index.epochs
            }
            report.index_epochs_checked += 1
            if len(set(recorded.values())) > 1:
                report.findings.append(
                    AuditFinding(
                        "index_epoch",
                        "peers disagree on the index epoch: "
                        + ", ".join(f"{p}={d[:12]}…" for p, d in recorded.items()),
                        block=n,
                    )
                )
        reference = getattr(peer, "index", None)
        if reference is None or peer.ledger.base_height != 0:
            return
        from repro.index import PeerIndex

        replayed = PeerIndex(
            trusted_threshold=reference.trusted_threshold,
            min_threshold=reference.min_threshold,
        )
        for block in blocks:
            replayed.apply_block(block)
            recorded_epoch = reference.epochs.get(block.number)
            if recorded_epoch is None:
                continue
            if replayed.epochs.get(block.number) != recorded_epoch:
                report.findings.append(
                    AuditFinding(
                        "index_epoch",
                        f"recorded epoch {recorded_epoch[:12]}… is not "
                        "reproduced by replaying the chain through a fresh "
                        "index",
                        block=block.number,
                    )
                )

    def _audit_offchain(self, peer: Peer, report: AuditReport) -> None:
        from repro.crypto.cid import CID, CODEC_DAG_JSON
        from repro.errors import InvalidBlockError, StorageError
        from repro.ipfs.block import Block as IpfsBlock

        for key, raw in peer.world.range(_DATA_PREFIX, _DATA_PREFIX + "\x7f"):
            record = json.loads(raw)
            try:
                root = CID.parse(record["cid"])
            except (KeyError, ValueError):
                report.findings.append(
                    AuditFinding(
                        "offchain_record",
                        f"entry {key[len(_DATA_PREFIX):]} has no parseable CID",
                    )
                )
                continue
            report.offchain_files_checked += 1
            for node_id, node in sorted(self.ipfs.nodes.items()):
                if not node.online or not node.blockstore.has(root):
                    continue
                # Read-only DAG walk with per-block hash verification — the
                # same check quarantine applies, without the deletion.
                stack, seen = [root], set()
                while stack:
                    cid = stack.pop()
                    if cid in seen or not node.blockstore.has(cid):
                        continue
                    seen.add(cid)
                    stored = node.blockstore.get(cid)
                    report.offchain_blocks_checked += 1
                    try:
                        IpfsBlock.verified(cid, stored.data)
                    except InvalidBlockError:
                        report.findings.append(
                            AuditFinding(
                                "offchain_block",
                                f"stored bytes no longer hash to {cid.encode()[:16]}…",
                                node=node_id,
                                cid=root.encode(),
                            )
                        )
                        continue
                    if cid.codec == CODEC_DAG_JSON:
                        try:
                            stack.extend(link.cid for link in node.dag.get(cid).links)
                        except StorageError:  # pragma: no cover - defensive
                            continue
