"""reprolint — repo-native static analysis for the HBO reproduction.

A multi-pass, stdlib-only analyzer that enforces the contracts this
reproduction states in prose but Python does not check. Per-file AST
rules:

- RL001 determinism: stochastic draws and wall-clock reads must flow
  through ``repro.rng`` / ``repro.sim.clock``.
- RL002 error hygiene: raised errors derive from ``ReproError`` (or are
  builtin ``TypeError``/``ValueError``-style re-raises).
- RL003 float equality: no ``==``/``!=`` against float-valued expressions
  in the numerical packages.
- RL004 units: latency/time/period quantities carry an explicit unit
  suffix or a ``Ms``/``Seconds`` alias annotation.
- RL005 public-API annotations: public functions are fully annotated.
- RL007 RNG-stream discipline: no draw-after-``spawn_rngs``, no
  module-level rng state, no rng threaded into sibling constructions.
- RL008 parity single-source: registered float formulas (edge pricing,
  contention slowdown, Eq. 2/4/5 cost terms) only in their leaf modules.

Project pass (over the repo import graph):

- RL006 layering conformance: imports must respect the declared layer
  DAG; upward edges — even ``TYPE_CHECKING``-gated — are violations.
- RL010 unreferenced definitions: a public function, method or class
  under ``src/`` needs a use in ``src/``, ``benchmarks/``, ``examples/``,
  ``tools/`` or ``perfbench/`` (tests do not count).

Audit pass:

- RL009 stale suppressions: a ``# reprolint: disable=`` directive that
  silences nothing is itself a violation.

Per-file results are cached under ``.reprolint_cache/`` keyed by content
hash, so warm runs re-analyze only changed files. Run ``python -m
reprolint src benchmarks examples`` (exits nonzero on violations or
engine errors) or see ``docs/static-analysis.md`` for the rule catalog,
suppression syntax, baseline workflow, and SARIF output.
"""

from __future__ import annotations

from reprolint.analyzer import AnalysisReport, analyze_paths
from reprolint.engine import (
    FileAnalysis,
    FileContext,
    Rule,
    Violation,
    analyze_source,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from reprolint.project import ImportRecord, ProjectContext, module_name
from reprolint.rules import ALL_RULES, rules_by_id

__version__ = "2.0.0"

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "FileAnalysis",
    "FileContext",
    "ImportRecord",
    "ProjectContext",
    "Rule",
    "Violation",
    "__version__",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name",
    "rules_by_id",
]
