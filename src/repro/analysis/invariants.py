"""Ledger sanitizer rules (SAN302–SAN305): the chain audit under rule ids.

The checks live in :mod:`repro.fabric.audit`, shared with ``verify_chain``
and ``audit_chain``; this module says what a finding *means* to the sanitizer:
``RULE_OF`` maps the audit's ``check`` to a rule id, a pass's ``state_replay``
findings are summarised into one SAN305, and a SAN303 also names the altered
transaction — the one whose endorsements no longer verify over its committed
rwset (``audit.endorsement_verifies`` without an MSP). A remembered canonical
form that is not what its value serialises to is a SAN303 too: the bytes
hashed into the block are not the transaction's.

:func:`check_block_commit` is the live mode (the whole chain after every
commit, independently of the append path), :func:`check_store` the offline
one; SAN304's stateful half (commits arrive in height order) is the sanitizer's.
"""

from __future__ import annotations

from repro.fabric import audit

from .rules import Finding

RULE_OF = {
    "header_chain": "SAN302",
    "merkle_root": "SAN303",
    "remembered_form": "SAN303",
    "block_number": "SAN304",
    "state_replay": "SAN305",
}


def _tampered_txs(block) -> str:
    suspects = [
        f"tx {tx_num} ({tx.tx_id[:16]})"
        for tx_num, tx in enumerate(block.transactions)
        if tx.endorsements and not audit.endorsement_verifies(tx)
    ]
    if suspects:
        return f"; tampered: {', '.join(suspects)}"
    return "; no single tx implicated (header-level tamper)"


def _block_finding(found, location: str, suffix: str = "") -> Finding:
    return Finding.for_rule(
        RULE_OF[found.check], location, found.block, 0,
        f"block {found.block}: {found.detail}{suffix}",
    )


def check_store(store, world=None, location: str = "ledger") -> list[Finding]:
    """Offline audit of a finished chain (and optionally its world state)."""
    findings: list[Finding] = []
    for found in audit.check_chain(store):
        suffix = ""
        if found.check == "merkle_root":
            suffix = _tampered_txs(store.block(found.block))
        findings.append(_block_finding(found, location, suffix))
    if world is None:
        return findings
    # One SAN305 per pass: the first three keys of each kind of disagreement.
    kinds: dict[str, list[str]] = {}
    for found in audit.check_state(store, world):
        kind, _, key = found.detail.partition(": ")
        kinds.setdefault(kind, []).append(key)
    if kinds:
        summary = "; ".join(f"{k}: [{', '.join(v[:3])}]" for k, v in kinds.items())
        findings.append(
            Finding.for_rule(
                RULE_OF["state_replay"], location, store.height, 0,
                f"live world state disagrees with the chain's replayed writes ({summary})",
            )
        )
    return findings


def check_block_commit(peer, block) -> list[Finding]:
    """Per-commit invariant pass over *peer*'s chain (live sanitizer), plus
    the one check the chain walk cannot make because it is served the same
    remembered forms the committer was: *block*'s forms, recomputed."""
    location = f"ledger:{peer.name}"
    findings = check_store(peer.ledger, peer.world, location)
    findings.extend(
        _block_finding(found, location) for found in audit.check_remembered(block)
    )
    return findings
