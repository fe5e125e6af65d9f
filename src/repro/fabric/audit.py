"""The chain audit: every ledger-integrity check, written once.

"Is this ledger intact, and do the replicas agree?" is the property the
paper puts metadata on a permissioned chain for, so it has one
implementation. The functions here are pure — they read blocks, a world
state and peers, return :class:`AuditFinding` values and change nothing —
and every verifier in the tree is a caller that only decides what a finding
*means*: :class:`~repro.fabric.ledger.BlockStore` raises ``LedgerError`` on
the first one, the ledger sanitizer files it under a SAN rule id
(:mod:`repro.analysis.invariants`), ``LedgerExplorer.audit_chain`` reports
it as it is, and state transfer refuses donors that produce one.

The semantic (``docs/STATIC_ANALYSIS.md`` has the table):

* **Block** (:func:`check_block`, :func:`check_chain`) — number equals
  position, ``previous_hash`` equals the prior header's hash, ``data_hash``
  equals the recomputed Merkle root of the transaction envelopes, and the
  header's ``rejected`` positions ascend strictly inside the block — on an
  annotated block, exactly the positions coded ``REJECTED_BY_CONSENSUS``.
* **Remembered forms** (:func:`check_remembered`) — the header hash and each
  transaction's rwset, signing payload, envelope and endorsement payload,
  and its creator and endorsement signature verdicts, as every node in this
  process is served them (``util.serialization.once``), equal what a copy
  nothing was remembered for computes.
* **Signatures** (:func:`check_signatures`, :func:`endorsement_verifies`) —
  every VALID transaction's creator signature verifies through the MSP and
  at least one endorsement verifies over ``endorsement_payload(tx)``. These
  verify for real; they are the oracle the remembered verdicts answer to.
* **State replay** (:func:`replay_writes`, :func:`check_state`) — every key
  the chain wrote holds its last written value (a deleted key is absent),
  and on a store that starts at genesis no live key lacks a write.
* **Replica parity** (:func:`check_peers`) — peers at the same height share
  the head hash *and* the state digest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto.merkle import merkle_root
from repro.errors import IdentityError, SignatureError
from repro.fabric.tx import ValidationCode, endorsement_payload


@dataclass(frozen=True)
class AuditFinding:
    """One integrity violation, located as precisely as the evidence allows."""

    check: str                 # header_chain | merkle_root | consensus_verdicts | ...
    detail: str
    block: int | None = None
    tx_id: str | None = None
    node: str | None = None    # IPFS node (off-chain findings)
    cid: str | None = None     # off-chain root CID

    def to_dict(self) -> dict:
        out = {"check": self.check, "detail": self.detail}
        for key in ("block", "tx_id", "node", "cid"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


# -- blocks -------------------------------------------------------------------


def check_block(block, number: int, prev_hash: str) -> list[AuditFinding]:
    """One block at chain position *number*, following the header that
    hashes to *prev_hash*. Messages are built only in a failing branch."""
    findings: list[AuditFinding] = []
    header = block.header
    if header.number != number:
        findings.append(
            AuditFinding(
                "block_number",
                f"numbered {header.number} where {number} expected",
                block=number,
            )
        )
    if header.previous_hash != prev_hash:
        findings.append(
            AuditFinding(
                "header_chain",
                f"previous_hash {header.previous_hash[:16]}… does not match "
                f"prior header hash {prev_hash[:16]}…",
                block=number,
            )
        )
    # Recomputed, never trusted: neither the producer's nor the store's copy.
    recomputed = merkle_root([tx.envelope_bytes() for tx in block.transactions]).hex()
    if recomputed != header.data_hash:
        findings.append(
            AuditFinding(
                "merkle_root",
                f"recomputed Merkle root {recomputed[:16]}… != header "
                f"data_hash {header.data_hash[:16]}…",
                block=number,
            )
        )
    rejected, n = header.rejected, len(block.transactions)
    if rejected and not _ascending_below(rejected, n):
        findings.append(
            AuditFinding(
                "consensus_verdicts",
                f"header rejects positions {list(rejected)}, not strictly "
                f"ascending positions of its {n} transactions",
                block=number,
            )
        )
    for tx_num, code in enumerate(block.validation_codes):
        if (code is ValidationCode.REJECTED_BY_CONSENSUS) != (tx_num in rejected):
            findings.append(
                AuditFinding(
                    "consensus_verdicts",
                    f"tx {tx_num} is coded {code.value} where the header "
                    f"rejects positions {list(rejected)}",
                    block=number,
                    tx_id=block.transactions[tx_num].tx_id if tx_num < n else None,
                )
            )
    return findings


def _ascending_below(positions: tuple, n: int) -> bool:
    """Are ``positions`` ints ascending strictly inside ``range(n)``?"""
    previous = -1
    for position in positions:
        if type(position) is not int or not previous < position < n:
            return False
        previous = position
    return True


def check_chain(store) -> list[AuditFinding]:
    """Every block of *store*, from its checkpoint forward."""
    findings: list[AuditFinding] = []
    prev = store.base_prev_hash
    for number, block in enumerate(store.blocks(), start=store.base_height):
        findings.extend(check_block(block, number, prev))
        prev = block.header.hash()
    return findings


def check_remembered(block) -> list[AuditFinding]:
    """The canonical forms *block*'s values hand out against a fresh
    computation. Forms are remembered per object and shared by every verifier
    in the process, so a wrong one would satisfy :func:`check_block` on every
    peer alike; a ``dataclasses.replace`` copy is an object nothing was
    remembered for, and what it serialises to is the oracle."""
    pairs = [("header hash", None, block.header.hash(), replace(block.header).hash())]
    for tx in block.transactions:
        # Every form a fresh transaction would read from a shared part is
        # remembered on that part, so the parts are copied too.
        fresh = replace(tx, proposal=replace(tx.proposal), rwset=replace(tx.rwset))
        pairs += [
            ("rwset canonical", tx, tx.rwset.canonical(), fresh.rwset.canonical()),
            ("signing_payload", tx,
             tx.proposal.signing_payload(), fresh.proposal.signing_payload()),
            ("envelope_bytes", tx, tx.envelope_bytes(), fresh.envelope_bytes()),
            ("endorsement_payload", tx,
             endorsement_payload(tx), endorsement_payload(fresh)),
            ("signature_error", tx,
             tx.proposal.signature_error(), fresh.proposal.signature_error()),
            ("endorsement_verdicts", tx,
             tx.endorsement_verdicts(), fresh.endorsement_verdicts()),
        ]
    return [
        AuditFinding(
            "remembered_form",
            f"remembered {form}"
            + (f" of tx {tx.tx_id[:16]}" if tx is not None else "")
            + " differs from a fresh computation",
            block=block.number,
            tx_id=tx.tx_id if tx is not None else None,
        )
        for form, tx, remembered, recomputed in pairs
        if remembered != recomputed
    ]


# -- signatures ---------------------------------------------------------------


def valid_txs(block) -> tuple:
    """The block's VALID transactions, in order. A block that carries no
    validation codes (never annotated by a committer) counts every one."""
    codes = block.validation_codes
    if not codes:
        return block.transactions
    return tuple(
        tx
        for tx, code in zip(block.transactions, codes)
        if code is ValidationCode.VALID
    )


def endorsement_verifies(tx, msp=None) -> bool:
    """Does at least one endorsement of *tx* verify over the committed
    ``endorsement_payload(tx)``? With an MSP the endorser must also be a
    live member; without one (an offline audit) the signature alone decides."""
    payload = endorsement_payload(tx)
    for endorsement in tx.endorsements:
        try:
            if msp is not None:
                msp.validate_identity(endorsement.endorser)
            endorsement.endorser.public_key.verify(payload, endorsement.signature)
        except (IdentityError, SignatureError):
            continue
        return True
    return False


def check_signatures(block, msp) -> list[AuditFinding]:
    """Creator and endorsement signatures of the block's VALID transactions
    (an invalid transaction carries its verdict in its validation code)."""
    findings: list[AuditFinding] = []
    for tx in valid_txs(block):
        proposal = tx.proposal
        try:
            msp.verify_signature(
                proposal.creator, proposal.signing_payload(), proposal.signature
            )
        except (IdentityError, SignatureError) as exc:
            findings.append(
                AuditFinding(
                    "creator_signature", str(exc), block=block.number, tx_id=tx.tx_id
                )
            )
        if not endorsement_verifies(tx, msp):
            findings.append(
                AuditFinding(
                    "endorsement_signature",
                    "no endorsement verifies against the committed rwset",
                    block=block.number,
                    tx_id=tx.tx_id,
                )
            )
    return findings


# -- state replay -------------------------------------------------------------


def replay_writes(blocks) -> dict[str, bytes | None]:
    """Final value of every key the VALID transactions of *blocks* wrote, in
    chain order; a key whose last write is a delete maps to ``None``."""
    replayed: dict[str, bytes | None] = {}
    for block in blocks:
        for tx in valid_txs(block):
            for write in tx.rwset.writes:
                replayed[write.key] = None if write.is_delete else write.value
    return replayed


def check_state(store, world, replayed: dict | None = None) -> list[AuditFinding]:
    """*world* against the writes *store* replays, one finding per key
    (*replayed*: ``replay_writes(store.blocks())``, when the caller has it).

    Every replayed key must hold its replayed value (``None``: be absent) on
    any store. A store that starts at genesis replays *every* write, so there
    a live key no transaction wrote is a finding too; behind a checkpoint
    such a key may predate the snapshot and proves nothing. ``detail`` is
    ``"<kind>: <key repr>"`` with three kinds of disagreement; SAN305 groups
    its one-per-pass summary by that kind.
    """
    if replayed is None:
        replayed = replay_writes(store.blocks())
    get = world.get
    findings: list[AuditFinding] = []
    for key in sorted(k for k, value in replayed.items() if get(k) != value):
        if get(key) is None:
            kind = "missing from live state"
        elif replayed[key] is None:
            kind = "unexplained live key"  # deleted on the chain, yet live
        else:
            kind = "value mismatch"
        findings.append(AuditFinding("state_replay", f"{kind}: {key!r}"))
    if store.base_height == 0:
        findings.extend(
            AuditFinding("state_replay", f"unexplained live key: {key!r}")
            for key in world.keys()
            if key not in replayed
        )
    return findings


# -- replica parity -----------------------------------------------------------


def check_peers(peers) -> list[AuditFinding]:
    """Peers at the same height must share the head hash and the state
    digest; one finding per height names the peers and which half differs."""
    by_height: dict[int, list] = {}
    for peer in peers:
        by_height.setdefault(peer.ledger.height, []).append(peer)
    findings: list[AuditFinding] = []
    for height, group in sorted(by_height.items()):
        if len(group) < 2:
            continue
        group.sort(key=lambda p: p.name)
        halves = {
            "head hash": [p.ledger.last_hash() for p in group],
            "state digest": [p.world.digest() for p in group],
        }
        diverged = [
            f"{half} diverges ("
            + ", ".join(f"{p.name}={v[:12]}…" for p, v in zip(group, values))
            + ")"
            for half, values in halves.items()
            if len(set(values)) > 1
        ]
        if diverged:
            findings.append(
                AuditFinding(
                    "peer_divergence",
                    f"peers at height {height}: " + "; ".join(diverged),
                )
            )
    return findings
