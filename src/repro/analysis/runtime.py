"""Sanitizer harness: mode parsing, peer hooks, and the run report.

Sanitizers are opt-in (they re-simulate every endorsement and re-audit the
chain on every commit, so they cost real time) and are enabled per run with
a mode spec — from the ``REPRO_SANITIZE`` environment variable, the
``FrameworkConfig.sanitize`` field, or the ``--sanitize`` CLI flag::

    REPRO_SANITIZE=all                 # every sanitizer
    REPRO_SANITIZE=divergence,ledger   # just those two
    repro chaos run standard --sanitize index

Modes: ``divergence`` (SAN301), ``ledger`` (SAN302–SAN305), ``consensus``
(SAN306), ``recovery`` (SAN307), ``index`` (SAN308/SAN309).

:func:`install_sanitizers` wires a :class:`Sanitizer` into a channel; the
peers call back after each endorsement/commit. Findings accumulate instead
of raising, so one run reports every violation; :meth:`Sanitizer.finalize`
adds the end-of-run check (consensus log consistency) and publishes the
:class:`SanitizerReport` for the CLI/CI gate.
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
        self._expected_heights: dict[str, int] = {}
        self._finalized = False

    # -- hooks (called by Peer) -------------------------------------------

    def check_endorsement(self, peer, proposal, response) -> None:
        if "divergence" not in self.modes:
            return
        found = divergence.check_endorsement(peer, proposal, response)
        with self._mutex:
            self._checks["divergence"] += 1
            self._findings.extend(found)

    def check_commit(self, peer, block) -> None:
        found: list[Finding] = []
        if "ledger" in self.modes:
            found.extend(invariants.check_block_commit(peer, block))
            with self._mutex:
                expected = self._expected_heights.get(peer.name)
                if expected is not None and block.number != expected:
                    found.append(
                        Finding.for_rule(
                            "SAN304", f"ledger:{peer.name}", block.number, 0,
                            f"{peer.name} committed block {block.number} "
                            f"where {expected} was expected next",
                        )
                    )
                self._expected_heights[peer.name] = block.number + 1
        if "index" in self.modes:
            found.extend(self._check_index(peer, block.number))
        with self._mutex:
            if "ledger" in self.modes:
                self._checks["ledger"] += 1
            if "index" in self.modes:
                self._checks["index"] += 1
            self._findings.extend(found)

    def _check_index(self, peer, at: int) -> list[Finding]:
        """SAN308: the peer's block-incremental index must equal an index
        rebuilt from scratch out of its world state at the same height.

        The rebuild is compared against both the *maintained* epoch root
        (what the peer serves) and the *reference* root re-serialised from
        the live postings, ``MerkleTree(index.leaves())`` — the maintained
        tree caches leaf hashes, so alone it would miss a posting corrupted
        in memory that no later block touches.

        Skipped when tombstones exist — deleted records are invisible to
        the world state, so a from-scratch rebuild legitimately differs
        (see :meth:`repro.index.PeerIndex.from_world`).
        """
        index = getattr(peer, "index", None)
        if index is None or index.tombstones:
            return []
        if index.height != peer.ledger.height:
            return [
                Finding.for_rule(
                    "SAN308", f"index:{peer.name}", at, 0,
                    f"{peer.name}'s index is at height {index.height} but "
                    f"its ledger is at {peer.ledger.height}",
                )
            ]
        from repro.crypto.merkle import MerkleTree
        from repro.index import PeerIndex

        rebuilt = PeerIndex.from_world(
            peer.world,
            peer.ledger.height,
            trusted_threshold=index.trusted_threshold,
            min_threshold=index.min_threshold,
        ).root()
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
                "SAN308", f"index:{peer.name}", at, 0,
                f"{peer.name}'s incremental index root "
                f"({' and '.join(diverged)}) disagrees with a from-scratch "
                f"rebuild {rebuilt[:16]}… at height {peer.ledger.height}",
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
        with self._mutex:
            self._checks["index"] += 1
            self._findings.extend(found)

    # -- recovery (called by repro.storage.persistence) --------------------

    def note_recovery(self, peer_name: str, resume_height: int) -> None:
        """A peer was wiped and is about to re-commit from *resume_height*:
        reset the SAN304 height expectation so checkpoint-based replay is
        not flagged as a height regression."""
        with self._mutex:
            self._expected_heights[peer_name] = resume_height

    def check_recovery(self, peer, channel) -> None:
        """SAN307: after a recovery the chain audit is clean. That audit
        (``audit_chain()``, the checks of :mod:`repro.fabric.audit`) includes
        replica parity — head hash and state digest equal across the online
        peers at one height — so a recovered peer that is distinguishable
        from an honest one is a finding."""
        if "recovery" not in self.modes:
            return
        from repro.obs.explorer import LedgerExplorer

        height = peer.ledger.height
        found = [
            Finding.for_rule(
                "SAN307", f"recovery:{peer.name}", height, 0,
                f"audit_chain failed after recovery of {peer.name}: "
                f"{finding.check}: {finding.detail}",
            )
            for finding in LedgerExplorer(channel).audit_chain(offchain=False).findings
        ]
        if "index" in self.modes:
            # A recovered peer's rebuilt/restored index must also agree
            # with a from-scratch rebuild of its recovered world state.
            found.extend(self._check_index(peer, height))
        with self._mutex:
            self._checks["recovery"] += 1
            if "index" in self.modes:
                self._checks["index"] += 1
            self._findings.extend(found)

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
        """Run the end-of-run check and publish the report (idempotent)."""
        if not self._finalized:
            extra = self._check_consensus() if "consensus" in self.modes else []
            with self._mutex:
                self._findings.extend(extra)
                self._finalized = True
        report = self.report()
        _publish(report)
        return report

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
# Installation + last-report plumbing
# ---------------------------------------------------------------------------

_LAST_REPORT: SanitizerReport | None = None
_ACTIVE: Sanitizer | None = None


def _publish(report: SanitizerReport) -> None:
    global _LAST_REPORT
    _LAST_REPORT = report


def last_report() -> SanitizerReport | None:
    """The report of the most recently finalized sanitized run, if any.

    This is how the CLI reaches the sanitizer of a Framework built deep
    inside a chaos scenario it never held a reference to.
    """
    return _LAST_REPORT


def active_sanitizer() -> Sanitizer | None:
    return _ACTIVE


def install_sanitizers(channel, spec: str = "") -> Sanitizer | None:
    """Attach sanitizers to *channel* per the combined mode spec.

    Returns the installed :class:`Sanitizer`, or ``None`` when no mode is
    enabled (the common case: zero overhead, nothing attached).
    """
    global _ACTIVE
    modes = enabled_modes(spec)
    if not modes:
        return None
    sanitizer = Sanitizer(modes)
    sanitizer.channel = channel
    channel.sanitizer = sanitizer
    for peer in channel.peers.values():
        peer.sanitizer = sanitizer
    _ACTIVE = sanitizer
    return sanitizer
