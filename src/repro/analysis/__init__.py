"""repro.analysis — the ``repro lint`` analyzer and the runtime sanitizers.

Three cooperating layers keep the framework's trust story machine-checked:

* :mod:`repro.analysis.linter` — ``repro lint``: one parse per file and
  local rules (repo-wide hygiene HYG2xx; in chaincode, DET103 for reads of
  the environment or a clock and DET105 for ``json.dumps`` without
  ``sort_keys``). That every replica writes the same bytes for the same
  input is checked by running the system twice
  (``tests/differential.py``), not proved here;
* :mod:`repro.analysis.runtime` (+ :mod:`divergence`, :mod:`invariants`)
  — sanitizers (SAN3xx) toggled by ``REPRO_SANITIZE``/``--sanitize`` that
  re-simulate endorsements, check what each commit adds and, once per peer,
  audit its whole ledger;
* :mod:`repro.analysis.baseline` — the accepted-findings baseline the
  ``lint-gate`` CI job diffs against.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and workflows.
"""

from .baseline import diff_baseline, load_baseline, write_baseline
from .invariants import check_store
from .linter import LintReport, lint_paths, lint_source
from .rules import (
    RULES,
    Finding,
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
    "LintReport",
    "Pragmas",
    "Rule",
    "Sanitizer",
    "SanitizerReport",
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
