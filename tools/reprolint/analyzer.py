"""Multi-pass orchestration: per-file pass, project pass, audit pass.

``analyze_paths`` is the one entry point behind both ``lint_paths`` and
the CLI:

1. **Per-file pass.** Each discovered file is content-hashed; cache hits
   are reused verbatim, misses are analyzed (optionally across a
   ``multiprocessing`` pool — rules are stateless, so workers rebuild
   them from the registry by id).
2. **Project pass.** Module registrations and import records from *all*
   files (cached or fresh) are assembled into a
   :class:`reprolint.project.ProjectContext`; project-scoped rules run
   over it. When RL010 runs, the context also gets the ``src/``
   definitions and the identifier counts of every reference-root file,
   linted or not (the latter are parsed for names only, and cached).
   Project violations respect the same suppression directives, and
   consumed directives feed the audit.
3. **Audit pass (RL009).** With per-file and project suppression usage
   merged, any directive that silenced nothing is reported.
"""

from __future__ import annotations

import ast
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from reprolint.cache import AnalysisCache, source_hash, tool_signature
from reprolint.engine import (
    FileAnalysis,
    Rule,
    Violation,
    analyze_source,
    file_rules,
    iter_python_files,
)
from reprolint.project import (
    REFERENCE_ROOTS,
    ProjectContext,
    ProjectRule,
    collect_usage,
    module_name,
    project_root,
)

# Below this many cache misses the pool costs more than it saves.
_MIN_FILES_FOR_POOL = 8


@dataclass
class AnalysisReport:
    """Aggregated result of a full analyze_paths run."""

    violations: List[Violation] = field(default_factory=list)
    files_analyzed: int = 0
    files_reanalyzed: List[Path] = field(default_factory=list)
    suppressed: int = 0
    errors: List[Violation] = field(default_factory=list)
    #: Reference-root files outside the linted set whose identifiers
    #: had to be parsed because the cache had no current entry.
    names_reparsed: List[Path] = field(default_factory=list)

    @property
    def violation_files(self) -> int:
        return len({str(v.path) for v in self.violations})


def _analyze_one(args: Tuple[str, str, Tuple[str, ...]]) -> Dict[str, object]:
    """Pool worker: analyze one source, returning the JSON-codec payload."""
    path_str, source, rule_ids = args
    from reprolint.rules import rules_by_id

    registry = rules_by_id()
    rules = [registry[rule_id] for rule_id in rule_ids if rule_id in registry]
    path = Path(path_str)
    analysis = analyze_source(source, path, rules, module=module_name(path))
    return analysis.to_json()


def _run_per_file_pass(
    files: Sequence[Path],
    rules: Sequence[Rule],
    cache: Optional[AnalysisCache],
    jobs: int,
) -> Tuple[Dict[Path, FileAnalysis], List[Path]]:
    analyses: Dict[Path, FileAnalysis] = {}
    misses: List[Tuple[Path, str, str]] = []  # (path, source, hash)
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            error = Violation(
                path=path,
                line=1,
                col=0,
                rule_id="E902",
                message=f"cannot read file: {exc}",
            )
            analyses[path] = FileAnalysis(
                path=path, violations=[error], error=error
            )
            continue
        content_hash = source_hash(source)
        if cache is not None:
            hit = cache.get(path, content_hash)
            if hit is not None:
                analyses[path] = hit
                continue
        misses.append((path, source, content_hash))

    rule_ids = tuple(rule.id for rule in rules)
    if jobs > 1 and len(misses) >= _MIN_FILES_FOR_POOL:
        with multiprocessing.Pool(processes=jobs) as pool:
            payloads = pool.map(
                _analyze_one,
                [(str(path), source, rule_ids) for path, source, _ in misses],
            )
        fresh = [
            FileAnalysis.from_json(path, payload)
            for (path, _, _), payload in zip(misses, payloads)
        ]
    else:
        fresh = [
            analyze_source(source, path, rules, module=module_name(path))
            for path, source, _ in misses
        ]
    for (path, _, content_hash), analysis in zip(misses, fresh):
        analyses[path] = analysis
        if cache is not None:
            cache.put(path, content_hash, analysis)
    return analyses, [path for path, _, _ in misses]


def _reference_names(
    path: Path, cache: Optional[AnalysisCache], reparsed: List[Path]
) -> Dict[str, int]:
    """Identifier counts of a reference-root file that was not linted."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return {}
    content_hash = source_hash(source)
    if cache is not None:
        hit = cache.get_names(path, content_hash)
        if hit is not None:
            return hit
    reparsed.append(path)
    try:
        names = collect_usage(ast.parse(source))[0]
    except SyntaxError:
        names = {}
    if cache is not None:
        cache.put_names(path, content_hash, names)
    return names


def _add_usage(
    project: ProjectContext,
    analyses: Dict[Path, FileAnalysis],
    cache: Optional[AnalysisCache],
    reparsed: List[Path],
) -> None:
    """Give ``project`` the ``src/`` definitions and reference-root uses."""
    linted = {path.resolve(): analysis for path, analysis in analyses.items()}
    roots = sorted({root for root in map(project_root, analyses) if root})
    srcs = [root / "src" for root in roots]
    for module, path in project.modules.items():
        resolved = path.resolve()
        if any(src in resolved.parents for src in srcs):
            project.definitions[module] = analyses[path].definitions
    counted = set()
    for root in roots:
        for top in REFERENCE_ROOTS:
            for path in sorted((root / top).rglob("*.py")):
                resolved = path.resolve()
                if resolved in counted:
                    continue
                counted.add(resolved)
                analysis = linted.get(resolved)
                names = (
                    analysis.names if analysis is not None
                    else _reference_names(path, cache, reparsed)
                )
                for name, count in names.items():
                    project.uses[name] = project.uses.get(name, 0) + count


def _run_project_pass(
    analyses: Dict[Path, FileAnalysis],
    rules: Sequence[Rule],
    cache: Optional[AnalysisCache],
    reparsed: List[Path],
) -> Tuple[List[Violation], int]:
    """Run project rules over the assembled graph; record directive usage."""
    project = ProjectContext()
    for path, analysis in analyses.items():
        if analysis.module is not None:
            project.add(analysis.module, path, analysis.imports)
    project_rules = [
        rule for rule in rules if isinstance(rule, ProjectRule)
    ]
    if any(rule.needs_usage for rule in project_rules):
        _add_usage(project, analyses, cache, reparsed)
    violations: List[Violation] = []
    suppressed = 0
    by_module = sorted(project.modules.items())
    for module, path in by_module:
        analysis = analyses.get(path)
        if analysis is None:
            continue
        for rule in project_rules:
            for violation in rule.check_module(
                module, path, project.imports.get(module, ()), project
            ):
                assert isinstance(violation, Violation)
                idx = analysis.suppressions.match(
                    violation.rule_id, violation.line
                )
                if idx is None:
                    violations.append(violation)
                else:
                    analysis.used_directives.add(idx)
                    suppressed += 1
    return violations, suppressed


def analyze_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    cache_dir: Optional[Path] = None,
    jobs: int = 1,
) -> AnalysisReport:
    """Run all passes over ``paths``; the single engine entry point."""
    files = list(iter_python_files(paths))
    cache: Optional[AnalysisCache] = None
    if cache_dir is not None:
        cache = AnalysisCache(cache_dir, tool_signature(rules))

    analyses, reanalyzed = _run_per_file_pass(files, rules, cache, jobs)
    report = AnalysisReport(
        files_analyzed=len(files), files_reanalyzed=reanalyzed
    )
    for analysis in analyses.values():
        report.violations.extend(analysis.violations)
        report.suppressed += analysis.suppressed
        if analysis.error is not None:
            report.errors.append(analysis.error)

    project_violations, project_suppressed = _run_project_pass(
        analyses, rules, cache, report.names_reparsed
    )
    report.violations.extend(project_violations)
    report.suppressed += project_suppressed

    if any(rule.id == "RL009" for rule in rules):
        from reprolint.rules.suppression_audit import audit_suppressions

        evaluated_ids: Set[str] = {r.id for r in file_rules(rules)}
        evaluated_ids |= {
            r.id for r in rules if isinstance(r, ProjectRule)
        }
        for path, analysis in analyses.items():
            if analysis.error is not None:
                continue
            for violation in audit_suppressions(
                path=path,
                suppressions=analysis.suppressions,
                used=analysis.used_directives,
                evaluated_ids=evaluated_ids,
            ):
                report.violations.append(violation)

    report.violations.sort(
        key=lambda v: (str(v.path), v.line, v.col, v.rule_id)
    )
    if cache is not None:
        cache.save()
    return report
