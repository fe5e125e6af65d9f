"""repro.analysis — determinism linter, flow analyzer, runtime sanitizers.

Four cooperating layers keep the framework's trust story machine-checked:

* :mod:`repro.analysis.linter` — ``reprolint``, an AST analyzer with
  determinism rules for chaincode modules (DET1xx) and repo-wide
  concurrency/error-handling hygiene rules (HYG2xx);
* :mod:`repro.analysis.flow` — ``repro flowcheck``, whole-program
  interprocedural analysis: nondeterminism taint reaching
  consensus-critical sinks (FLOW5xx) over an alias-resolved call graph;
* :mod:`repro.analysis.runtime` (+ :mod:`divergence`, :mod:`invariants`)
  — sanitizers (SAN3xx) toggled by ``REPRO_SANITIZE``/``--sanitize`` that
  re-simulate endorsements and audit ledger invariants at every commit;
* :mod:`repro.analysis.baseline` — the accepted-findings baselines the
  ``lint-gate`` CI job diffs against.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and workflows.
"""

from .baseline import diff_baseline, load_baseline, write_baseline
from .flow import analyze_paths as flow_analyze_paths
from .flow import build_program
from .invariants import check_store
from .linter import lint_file, lint_paths, lint_source
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
    last_report,
    parse_modes,
)

__all__ = [
    "RULES",
    "Finding",
    "FlowFinding",
    "Pragmas",
    "Rule",
    "Sanitizer",
    "SanitizerReport",
    "build_program",
    "check_store",
    "diff_baseline",
    "enabled_modes",
    "flow_analyze_paths",
    "get_rule",
    "install_sanitizers",
    "last_report",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "parse_modes",
    "parse_pragmas",
    "write_baseline",
]
