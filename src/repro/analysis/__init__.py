"""repro.analysis — the ``repro lint`` analyzer and the runtime sanitizers.

Three cooperating layers keep the framework's trust story machine-checked:

* :mod:`repro.analysis.linter` — ``repro lint``: one parse of the tree,
  then a local pass (repo-wide hygiene rules HYG2xx, and DET105 for
  ``json.dumps`` in chaincode) and the :mod:`repro.analysis.flow` pass,
  whole-program interprocedural nondeterminism taint reaching
  consensus-critical sinks (FLOW5xx) over an alias-resolved call graph;
* :mod:`repro.analysis.runtime` (+ :mod:`divergence`, :mod:`invariants`)
  — sanitizers (SAN3xx) toggled by ``REPRO_SANITIZE``/``--sanitize`` that
  re-simulate endorsements and audit ledger invariants at every commit;
* :mod:`repro.analysis.baseline` — the accepted-findings baseline the
  ``lint-gate`` CI job diffs against.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and workflows.
"""

from .baseline import diff_baseline, load_baseline, write_baseline
from .flow import build_program
from .invariants import check_store
from .linter import LintReport, lint_paths, lint_source
from .rules import (
    RULES,
    Finding,
    FlowFinding,
    Pragmas,
    Rule,
    get_rule,
    parse_pragmas,
)
from .runtime import (
    Sanitizer,
    SanitizerReport,
    enabled_modes,
    install_sanitizers,
    parse_modes,
)

__all__ = [
    "RULES",
    "Finding",
    "FlowFinding",
    "LintReport",
    "Pragmas",
    "Rule",
    "Sanitizer",
    "SanitizerReport",
    "build_program",
    "check_store",
    "diff_baseline",
    "enabled_modes",
    "get_rule",
    "install_sanitizers",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "parse_modes",
    "parse_pragmas",
    "write_baseline",
]
