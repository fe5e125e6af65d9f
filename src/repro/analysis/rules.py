"""Rule catalogue shared by ``repro lint`` and the runtime sanitizers.

Every check — static (``DET*``/``HYG*``, reported by
:mod:`repro.analysis.linter`) or dynamic (``SAN*``, reported by the
sanitizers) — carries a rule id, a severity, and a fix hint, so a finding
is actionable wherever it surfaces: lint output, sanitizer report, or the
CI lint gate.

Suppression is per line or per file, via pragma comments::

    x = json.dumps(v)  # reprolint: disable=DET105
    y = time.time()    # reprolint: disable          (all rules, this line)
    # reprolint: disable-file=HYG204                 (whole file, these rules)

A pragma naming a rule id the catalogue does not define is an
:class:`~repro.errors.AnalysisError`, so a stale suppression cannot
silently suppress nothing.

Findings are plain data (``to_dict``) for the JSON output; the checked-in
baseline keeps only their identity (:meth:`Finding.key`).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass

from repro.errors import AnalysisError

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One checkable property, static or dynamic."""

    id: str
    severity: str
    summary: str
    fix_hint: str
    scope: str  # "chaincode" | "repo" | "runtime"


_RULES = (
    # -- determinism: chaincode modules only -------------------------------
    Rule("DET103", ERROR, "chaincode reads the environment or a clock",
         "hosts differ in both, and two runs on one host need not show it: "
         "take time from stub.get_timestamp() and settings from the "
         "invocation's arguments",
         "chaincode"),
    Rule("DET105", ERROR, "json.dumps without sort_keys=True in chaincode",
         "use repro.util.serialization.canonical_json for state values",
         "chaincode"),
    # -- hygiene rules: whole repository -----------------------------------
    Rule("HYG201", WARNING, "lock.acquire() outside a with-statement",
         "use `with lock:` so the release survives exceptions",
         "repo"),
    Rule("HYG202", WARNING, "broad except swallows the error",
         "catch the narrowest type, or at least log/annotate before continuing",
         "repo"),
    Rule("HYG203", ERROR, "mutable default argument",
         "default to None and create the container inside the function",
         "repo"),
    Rule("HYG204", WARNING, "mutation of module-level shared state inside a function",
         "guard the structure with a threading.Lock or pass it explicitly; "
         "module globals mutated from callers' threads race",
         "repo"),
    # -- runtime sanitizer rules (never produced by the linter) ------------
    Rule("SAN301", ERROR, "endorsement re-simulation diverged",
         "the chaincode is nondeterministic: two simulations of one proposal "
         "produced different rwsets/responses on the same peer",
         "runtime"),
    Rule("SAN302", ERROR, "ledger hash-chain link broken",
         "block's previous_hash does not match the preceding header hash",
         "runtime"),
    Rule("SAN303", ERROR, "block Merkle root mismatch",
         "a transaction envelope was altered after ordering, a block's "
         "consensus verdicts do not fit its transactions, or a remembered "
         "canonical form is not what its value serialises to",
         "runtime"),
    Rule("SAN304", ERROR, "non-monotone ledger height",
         "a block is not numbered by its position in the chain (the audit's "
         "block_number check); block delivery is broken",
         "runtime"),
    Rule("SAN305", ERROR, "world-state replay divergence",
         "replaying all valid write sets does not reproduce the live state",
         "runtime"),
    Rule("SAN306", ERROR, "consensus logs diverged",
         "honest validators' decided logs are not prefix-consistent",
         "runtime"),
    Rule("SAN307", ERROR, "post-recovery state divergence",
         "after a recovery, peers at one height disagree on the head hash or "
         "the state digest",
         "runtime"),
    Rule("SAN308", ERROR, "secondary index diverged from world state",
         "a peer's index is not at its ledger's height, or differs from an "
         "index rebuilt from its world state: a posting (its entries, chain "
         "or id orders), a trust band, or the maintained, re-hashed or "
         "recorded head root",
         "runtime"),
    Rule("SAN309", ERROR, "indexed query answers diverge from scan answers",
         "a world-state route (authenticated index, state scan or point "
         "read) and the chaincode read (full scan or get_data) returned "
         "different answers for the same query",
         "runtime"),
)

RULES: dict[str, Rule] = {rule.id: rule for rule in _RULES}


def get_rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except KeyError:
        raise AnalysisError(f"unknown rule id {rule_id!r}") from None


@dataclass(frozen=True)
class Finding:
    """One violation, located as precisely as the evidence allows."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = ERROR
    fix_hint: str = ""

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: stable across unrelated edits (no line/col),
        so a baseline entry keeps matching until the finding itself is
        fixed or reworded."""
        return (self.rule_id, self.path, self.message)

    def render(self) -> str:
        hint = f"  [{self.fix_hint}]" if self.fix_hint else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}{hint}"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def for_rule(cls, rule_id: str, path: str, line: int, col: int, message: str,
                 **extra):
        """A finding of *rule_id*, with the rule's severity and fix hint."""
        rule = get_rule(rule_id)
        return cls(rule_id=rule_id, path=path, line=line, col=col, message=message,
                   severity=rule.severity, fix_hint=rule.fix_hint, **extra)


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable-file|disable)\s*(?:=\s*(?P<rules>[A-Z0-9,\s]+))?"
)

ALL = "*"


@dataclass(frozen=True)
class Pragmas:
    """Parsed suppression state of one source file."""

    file_disabled: frozenset[str]            # rule ids (or ALL) off everywhere
    line_disabled: dict[int, frozenset[str]]  # line -> rule ids (or ALL)

    def allows(self, rule_id: str, line: int) -> bool:
        for disabled in (self.file_disabled, self.line_disabled.get(line, frozenset())):
            if ALL in disabled or rule_id in disabled:
                return False
        return True


def parse_pragmas(source: str, path: str = "<string>") -> Pragmas:
    file_disabled: set[str] = set()
    line_disabled: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules_raw = match.group("rules")
        rules = (
            frozenset(r.strip() for r in rules_raw.split(",") if r.strip())
            if rules_raw
            else frozenset({ALL})
        )
        unknown = sorted(rules - {ALL} - RULES.keys())
        if unknown:
            raise AnalysisError(f"{path}:{lineno}: pragma names unknown rule(s) {unknown}")
        if match.group("kind") == "disable-file":
            file_disabled |= rules
        else:
            line_disabled[lineno] = rules | line_disabled.get(lineno, frozenset())
    return Pragmas(file_disabled=frozenset(file_disabled), line_disabled=line_disabled)
