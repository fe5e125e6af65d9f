"""Interprocedural flow analysis: nondeterminism taint.

The flow pass of ``repro lint`` (see :mod:`repro.analysis.linter`):

* :mod:`.callgraph` — reads and parses every file once into one
  whole-program index with an alias-resolved call graph;
* :mod:`.taint` — FLOW501–506, nondeterminism sources reaching
  consensus-critical sinks through any number of calls.
"""

from .callgraph import Program, build_program
from .taint import analyze_taint

__all__ = ["Program", "analyze_taint", "build_program"]
