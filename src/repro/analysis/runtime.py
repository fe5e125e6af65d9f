"""Sanitizer harness: mode parsing, peer hooks, and the run report.

Sanitizers are opt-in (they re-simulate every endorsement and audit every
block as it commits, so they cost real time) and are enabled per run with a
mode spec — from the ``REPRO_SANITIZE`` environment variable, the
``FrameworkConfig.sanitize`` field, or the ``--sanitize`` CLI flag::

    REPRO_SANITIZE=all                 # every sanitizer
    REPRO_SANITIZE=divergence,ledger   # just those two
    repro chaos run standard --sanitize index

Modes: ``divergence`` (SAN301), ``ledger`` (SAN302–SAN305), ``consensus``
(SAN306), ``recovery`` (SAN307), ``index`` (SAN308/SAN309).

:func:`install_sanitizers` wires a :class:`Sanitizer` into one channel
(``channel.sanitizer``, which that channel's query engines ask); its peers
call back after each endorsement/commit, each checked for what it adds;
:meth:`Sanitizer.check_peer` checks a peer's whole chain, state and index at
:meth:`Sanitizer.finalize`, before a crash and after a recovery. Findings
accumulate instead of raising, so one run reports every violation, and
``finalize`` publishes the :class:`SanitizerReport` for the CLI/CI gate.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.errors import AnalysisError

from . import divergence, invariants
from .rules import Finding

MODES = ("divergence", "ledger", "consensus", "recovery", "index")


def parse_modes(spec: str) -> frozenset[str]:
    """Parse a mode spec: empty/off → none; ``all``/``1``/``on`` → all."""
    spec = (spec or "").strip().lower()
    if spec in ("", "0", "off", "none"):
        return frozenset()
    if spec in ("1", "all", "on", "true"):
        return frozenset(MODES)
    modes = frozenset(part.strip() for part in spec.split(",") if part.strip())
    unknown = modes - frozenset(MODES)
    if unknown:
        raise AnalysisError(
            f"unknown sanitizer mode(s) {sorted(unknown)}; valid: {', '.join(MODES)}"
        )
    return modes


def enabled_modes(spec: str = "") -> frozenset[str]:
    """Modes from an explicit spec plus the ``REPRO_SANITIZE`` environment."""
    return parse_modes(spec) | parse_modes(os.environ.get("REPRO_SANITIZE", ""))


@dataclass
class SanitizerReport:
    """Everything one sanitized run observed."""

    modes: tuple[str, ...]
    checks: dict[str, int]  # checks executed, per mode
    findings: list[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "modes": list(self.modes),
            "checks": dict(sorted(self.checks.items())),
            "findings": [f.to_dict() for f in self.findings],
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"sanitizers: {', '.join(self.modes) or '(none)'}",
            "checks: "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.checks.items()))
                or "none"
            ),
        ]
        if self.findings:
            lines.append(f"{len(self.findings)} finding(s):")
            lines.extend("  " + f.render() for f in self.findings)
        else:
            lines.append("no findings")
        return "\n".join(lines)


class Sanitizer:
    """Live checker attached to a channel's peers for one run."""

    def __init__(self, modes: frozenset[str]) -> None:
        self.modes = frozenset(modes)
        self.channel = None
        self._mutex = threading.Lock()
        self._findings: list[Finding] = []
        self._checks = {mode: 0 for mode in sorted(self.modes)}
        self._finalized = False

    # -- hooks (called by Peer) -------------------------------------------

    def check_endorsement(self, peer, proposal, response) -> None:
        if "divergence" in self.modes:
            self._file(divergence.check_endorsement(peer, proposal, response), "divergence")

    def check_commit(self, peer, block) -> None:
        """What *block* adds, in O(block): ``BlockStore.append`` has already
        run ``audit.check_block`` on it, so its remembered forms and the
        index's height are left."""
        found: list[Finding] = []
        if "ledger" in self.modes:
            found.extend(invariants.check_remembered(block, f"ledger:{peer.name}"))
        if "index" in self.modes:
            found.extend(self._check_index(peer, rebuild=False))
        self._file(found, "ledger", "index")

    def check_peer(self, peer) -> None:
        """*peer*'s chain and world state under the audit (SAN302–SAN305)
        and its index against a rebuild (SAN308), in O(chain)."""
        found: list[Finding] = []
        if "ledger" in self.modes:
            found.extend(
                invariants.check_store(peer.ledger, peer.world, f"ledger:{peer.name}")
            )
        if "index" in self.modes:
            found.extend(self._check_index(peer))
        self._file(found, "ledger", "index")

    def _file(self, found: list[Finding], *modes: str) -> None:
        """Count a check for each enabled mode of *modes*; keep *found*."""
        with self._mutex:
            for mode in modes:
                if mode in self._checks:
                    self._checks[mode] += 1
            self._findings.extend(found)

    @staticmethod
    def _check_index(peer, rebuild: bool = True) -> list[Finding]:
        """SAN308: the peer's block-incremental index is at its ledger's
        height and, with *rebuild*, equals an index rebuilt from scratch out
        of its world state at that height.

        The rebuild is compared against both the *maintained* epoch root
        (what the peer serves) and the *reference* root re-serialised from
        the live postings, ``MerkleTree(index.leaves())`` — the maintained
        tree caches leaf hashes, so alone it would miss a posting corrupted
        in memory that no later block touches.

        The rebuild is skipped when tombstones exist — deleted records are
        invisible to the world state, so a from-scratch rebuild legitimately
        differs (see :meth:`repro.index.PeerIndex.from_world`).
        """
        index = getattr(peer, "index", None)
        if index is None:
            return []
        height = peer.ledger.height
        if index.height != height:
            return [
                Finding.for_rule(
                    "SAN308", f"index:{peer.name}", height, 0,
                    f"{peer.name}'s index is at height {index.height} but "
                    f"its ledger is at {height}",
                )
            ]
        if not rebuild or index.tombstones:
            return []
        from repro.crypto.merkle import MerkleTree
        from repro.index import PeerIndex

        rebuilt = PeerIndex.from_world(peer.world, height).root()
        live = {
            "maintained": index.root(),
            "re-hashed from live postings": MerkleTree(index.leaves()).root.hex(),
        }
        diverged = [
            f"{which} {root[:16]}…" for which, root in live.items() if root != rebuilt
        ]
        if not diverged:
            return []
        return [
            Finding.for_rule(
                "SAN308", f"index:{peer.name}", height, 0,
                f"{peer.name}'s incremental index root "
                f"({' and '.join(diverged)}) disagrees with a from-scratch "
                f"rebuild {rebuilt[:16]}… at height {height}",
            )
        ]

    # -- query parity (called by repro.query.executor) ----------------------

    def check_query_parity(self, description: str, indexed: list, scanned: list) -> None:
        """SAN309: a world-state route (index, state scan or point read,
        ``indexed``) and the chaincode read (full scan or ``get_data``,
        ``scanned``) must return byte-identical answers for the same query."""
        if "index" not in self.modes:
            return
        from repro.util.serialization import canonical_json

        found: list[Finding] = []
        if canonical_json(indexed) != canonical_json(scanned):
            found.append(
                Finding.for_rule(
                    "SAN309", "query", 0, 0,
                    f"world-state answer ({len(indexed)} rows) diverges from "
                    f"the chaincode answer ({len(scanned)} rows) for {description}",
                )
            )
        self._file(found, "index")

    # -- recovery (called by repro.storage.persistence) --------------------

    def check_recovery(self, peer, channel) -> None:
        """SAN307: after a recovery the chain audit is clean. That audit
        (``audit_chain()``, the checks of :mod:`repro.fabric.audit`) includes
        replica parity — head hash and state digest equal across the online
        peers at one height — so a recovered peer that is distinguishable
        from an honest one is a finding. Then :meth:`check_peer`."""
        if "recovery" in self.modes:
            from repro.obs.explorer import LedgerExplorer

            height = peer.ledger.height
            report = LedgerExplorer(channel).audit_chain(offchain=False)
            self._file(
                [
                    Finding.for_rule(
                        "SAN307", f"recovery:{peer.name}", height, 0,
                        f"audit_chain failed after recovery of {peer.name}: "
                        f"{finding.check}: {finding.detail}",
                    )
                    for finding in report.findings
                ],
                "recovery",
            )
        self.check_peer(peer)

    # -- end of run --------------------------------------------------------

    def _check_consensus(self) -> list[Finding]:
        cluster = getattr(getattr(self.channel, "orderer", None), "cluster", None)
        if cluster is None:
            return []
        with self._mutex:
            self._checks["consensus"] += 1
        if cluster.log_prefix_consistent():
            return []
        return [
            Finding.for_rule(
                "SAN306", "consensus", 0, 0,
                "honest validators' decided logs are not prefix-consistent",
            )
        ]

    def finalize(self) -> SanitizerReport:
        """Run :meth:`check_peer` on every peer and the consensus check, and
        return the report (idempotent)."""
        if not self._finalized:
            if self.modes & {"ledger", "index"}:
                for peer in self.channel.peers.values():
                    self.check_peer(peer)
            extra = self._check_consensus() if "consensus" in self.modes else []
            with self._mutex:
                self._findings.extend(extra)
                self._finalized = True
        return self.report()

    def report(self) -> SanitizerReport:
        with self._mutex:
            findings = list(self._findings)
            checks = dict(self._checks)
        return SanitizerReport(
            modes=tuple(sorted(self.modes)),
            checks=checks,
            findings=findings,
        )


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def install_sanitizers(channel, spec: str = "") -> Sanitizer | None:
    """Attach sanitizers to *channel* per the combined mode spec.

    Returns the installed :class:`Sanitizer`, or ``None`` when no mode is
    enabled (the common case: zero overhead, nothing attached).
    """
    modes = enabled_modes(spec)
    if not modes:
        return None
    sanitizer = Sanitizer(modes)
    sanitizer.channel = channel
    channel.sanitizer = sanitizer
    for peer in channel.peers.values():
        peer.sanitizer = sanitizer
    return sanitizer
