"""Rule engine: file contexts, suppression parsing, and the lint loop.

A :class:`Rule` inspects one parsed module (via a :class:`FileContext`)
and yields :class:`Violation` records. The engine owns everything rules
should not have to care about: discovering files, parsing, matching
suppression comments, tracking which suppressions actually fired (the
RL009 audit), and aggregating results.

Suppression syntax (per line, or on any continuation line of the same
statement)::

    x = foo()  # reprolint: disable=RL001
    y = bar()  # reprolint: disable=RL001,RL003
    z = baz()  # reprolint: disable=all

File-level suppression (anywhere in the file, conventionally near the top)::

    # reprolint: disable-file=RL004

Two passes exist: per-file rules (``Rule.scope == "file"``) see one
:class:`FileContext`; project rules (``scope == "project"``, see
:mod:`reprolint.project`) see the whole import graph. ``lint_paths``
runs both plus the suppression audit — the incremental-cache front-end
lives in :mod:`reprolint.analyzer`.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from reprolint.project import (
    Definition,
    ImportRecord,
    collect_imports,
    collect_usage,
    module_from_parts,
)

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)

# Statement types whose spans must not absorb directives written inside
# their bodies; only their multi-line *headers* anchor to the statement.
_COMPOUND_STMTS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: Path
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_json(self) -> List[object]:
        return [self.line, self.col, self.rule_id, self.message]

    @staticmethod
    def from_json(path: Path, data: Sequence[object]) -> "Violation":
        line, col, rule_id, message = data
        return Violation(
            path=path,
            line=int(line),  # type: ignore[arg-type]
            col=int(col),  # type: ignore[arg-type]
            rule_id=str(rule_id),
            message=str(message),
        )


@dataclass(frozen=True)
class Directive:
    """One parsed ``# reprolint: disable[-file]=...`` comment."""

    line: int
    kind: str  # "disable" | "disable-file"
    codes: FrozenSet[str]  # upper-cased rule ids, possibly containing "ALL"
    covers: FrozenSet[int]  # physical lines this directive applies to

    def to_json(self) -> List[object]:
        return [self.line, self.kind, sorted(self.codes), sorted(self.covers)]

    @staticmethod
    def from_json(data: Sequence[object]) -> "Directive":
        line, kind, codes, covers = data
        return Directive(
            line=int(line),  # type: ignore[arg-type]
            kind=str(kind),
            codes=frozenset(str(c) for c in codes),  # type: ignore[union-attr]
            covers=frozenset(int(c) for c in covers),  # type: ignore[union-attr]
        )


@dataclass
class Suppressions:
    """Parsed suppression directives for one file.

    ``match`` returns the index of the directive that silences a
    violation (or ``None``) so callers can account for which directives
    were actually consumed — the input to the RL009 stale-suppression
    audit.
    """

    directives: Tuple[Directive, ...] = ()

    def match(self, rule_id: str, line: int) -> Optional[int]:
        rule_id = rule_id.upper()
        for idx, directive in enumerate(self.directives):
            if "ALL" not in directive.codes and rule_id not in directive.codes:
                continue
            if directive.kind == "disable-file" or line in directive.covers:
                return idx
        return None

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return self.match(rule_id, line) is not None

    # Legacy views kept for callers that predate directive tracking.

    @property
    def by_line(self) -> Dict[int, FrozenSet[str]]:
        out: Dict[int, Set[str]] = {}
        for directive in self.directives:
            if directive.kind == "disable":
                for line in directive.covers:
                    out.setdefault(line, set()).update(directive.codes)
        return {line: frozenset(codes) for line, codes in out.items()}

    @property
    def file_wide(self) -> FrozenSet[str]:
        codes: Set[str] = set()
        for directive in self.directives:
            if directive.kind == "disable-file":
                codes |= directive.codes
        return frozenset(codes)


def _statement_spans(tree: ast.Module) -> Dict[int, Tuple[int, int]]:
    """Map physical lines of multi-line statements to the statement span.

    A directive written on any physical line of a parenthesized or
    backslash-continued statement suppresses violations reported anywhere
    in that statement — at its first line (where most rules anchor) or at
    an inner expression line. Compound statements contribute only their
    header lines (``def``/``if``/... signature up to the colon), so a
    directive inside a function body never leaks onto the ``def`` line.
    Single-line statements contribute nothing: the directive's own line
    already covers them.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if isinstance(node, _COMPOUND_STMTS):
            body = getattr(node, "body", None)
            if not body:
                continue
            end = body[0].lineno - 1
        if end <= node.lineno:
            continue
        for line in range(node.lineno, end + 1):
            # Innermost statement wins (largest start line).
            current = spans.get(line)
            if current is None or current[0] < node.lineno:
                spans[line] = (node.lineno, end)
    return spans


def parse_suppressions(
    source: str, tree: Optional[ast.Module] = None
) -> Suppressions:
    """Extract suppression directives from comment tokens.

    Uses :mod:`tokenize` rather than a per-line regex scan so that a
    directive-looking substring inside a string literal never silences a
    rule. When ``tree`` is supplied, directives on continuation lines are
    anchored to their statement's first line (where violations report).
    """
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        comments: List[Tuple[int, str]] = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable files are reported by the engine as E901; directives
        # found by regex are still honoured so partial files behave sanely.
        comments = [
            (i, line)
            for i, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]
    spans = _statement_spans(tree) if tree is not None else {}
    directives: List[Directive] = []
    for lineno, text in comments:
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        codes = frozenset(
            part.strip().upper()
            for part in match.group(2).split(",")
            if part.strip()
        )
        if not codes:
            continue
        covers = {lineno}
        span = spans.get(lineno)
        if span is not None:
            covers.update(range(span[0], span[1] + 1))
        directives.append(
            Directive(
                line=lineno,
                kind=match.group(1),
                codes=codes,
                covers=frozenset(covers),
            )
        )
    return Suppressions(directives=tuple(directives))


@dataclass
class FileContext:
    """Everything a per-file rule may inspect about one module."""

    path: Path
    source: str
    tree: ast.Module
    module: Optional[str] = None

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components, used by rules to decide applicability."""
        return self.path.parts

    @property
    def filename(self) -> str:
        return self.path.name

    def in_package(self, *names: str) -> bool:
        """True if any of ``names`` appears as a path component."""
        return any(name in self.parts for name in names)

    def dotted_module(self) -> Optional[str]:
        """Registry module name, falling back to path-derived for fixtures."""
        return self.module or module_from_parts(self.path)


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``id``/``summary`` and implement :meth:`check`;
    :meth:`applies` gates the rule on the file's location so repo policy
    (e.g. "RL003 only in the numerical packages") lives with the rule.
    ``scope`` is ``"file"`` for AST rules, ``"project"`` for import-graph
    rules, and ``"audit"`` for the engine-driven suppression audit.
    """

    id: str = "RL000"
    summary: str = ""
    scope: str = "file"

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
        )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


@dataclass
class FileAnalysis:
    """Per-file result of the per-file pass — everything the cache stores.

    Project-pass and audit violations are *not* here: they are recomputed
    from ``imports``/``directives`` each run, which is what makes cached
    entries safe to reuse when an unrelated file changes the graph.
    """

    path: Path
    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    used_directives: Set[int] = field(default_factory=set)
    suppressions: Suppressions = field(default_factory=Suppressions)
    applied_rule_ids: Set[str] = field(default_factory=set)
    module: Optional[str] = None
    imports: Tuple[ImportRecord, ...] = ()
    names: Dict[str, int] = field(default_factory=dict)
    definitions: Tuple[Definition, ...] = ()
    error: Optional[Violation] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "violations": [v.to_json() for v in self.violations],
            "suppressed": self.suppressed,
            "used": sorted(self.used_directives),
            "directives": [d.to_json() for d in self.suppressions.directives],
            "applied": sorted(self.applied_rule_ids),
            "module": self.module,
            "imports": [r.to_json() for r in self.imports],
            "names": self.names,
            "definitions": [d.to_json() for d in self.definitions],
            "error": self.error.to_json() if self.error else None,
        }

    @staticmethod
    def from_json(path: Path, data: Dict[str, object]) -> "FileAnalysis":
        error = data.get("error")
        return FileAnalysis(
            path=path,
            violations=[
                Violation.from_json(path, v)
                for v in data.get("violations", ())  # type: ignore[union-attr]
            ],
            suppressed=int(data.get("suppressed", 0)),  # type: ignore[arg-type]
            used_directives={int(i) for i in data.get("used", ())},  # type: ignore[union-attr]
            suppressions=Suppressions(
                directives=tuple(
                    Directive.from_json(d)
                    for d in data.get("directives", ())  # type: ignore[union-attr]
                )
            ),
            applied_rule_ids={str(r) for r in data.get("applied", ())},  # type: ignore[union-attr]
            module=str(data["module"]) if data.get("module") else None,
            imports=tuple(
                ImportRecord.from_json(r)
                for r in data.get("imports", ())  # type: ignore[union-attr]
            ),
            names=dict(data.get("names", {})),  # type: ignore[call-overload]
            definitions=tuple(
                Definition.from_json(d)
                for d in data.get("definitions", ())  # type: ignore[union-attr]
            ),
            error=Violation.from_json(path, error) if error else None,  # type: ignore[arg-type]
        )


def file_rules(rules: Sequence[Rule]) -> List[Rule]:
    return [rule for rule in rules if rule.scope == "file"]


def analyze_source(
    source: str,
    path: Path,
    rules: Sequence[Rule],
    module: Optional[str] = None,
) -> FileAnalysis:
    """Run the per-file pass over in-memory ``source``.

    Parses once, extracts import records (when ``module`` resolves) and
    identifier usage (for RL010), applies per-file rules under suppression matching, and records which
    directives were consumed.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        error = Violation(
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            rule_id="E901",
            message=f"syntax error: {exc.msg}",
        )
        return FileAnalysis(path=path, violations=[error], error=error)
    analysis = FileAnalysis(path=path, module=module)
    analysis.names, analysis.definitions = collect_usage(tree)
    if module is not None:
        analysis.imports = collect_imports(
            tree, module, is_package=path.name == "__init__.py"
        )
    ctx = FileContext(path=path, source=source, tree=tree, module=module)
    analysis.suppressions = parse_suppressions(source, tree)
    for rule in file_rules(rules):
        if not rule.applies(ctx):
            continue
        analysis.applied_rule_ids.add(rule.id)
        for violation in rule.check(ctx):
            idx = analysis.suppressions.match(violation.rule_id, violation.line)
            if idx is None:
                analysis.violations.append(violation)
            else:
                analysis.used_directives.add(idx)
                analysis.suppressed += 1
    analysis.violations.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return analysis


def analyze_file(
    path: Path, rules: Sequence[Rule], module: Optional[str] = None
) -> FileAnalysis:
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
        return FileAnalysis(path=path, violations=[error], error=error)
    return analyze_source(source, path, rules, module=module)


def lint_source(
    source: str,
    path: Path,
    rules: Sequence[Rule],
) -> List[Violation]:
    """Lint in-memory ``source`` as if it lived at ``path``.

    The path controls rule applicability (packages, filenames) — the
    self-test suite leans on this to exercise rules against fixture
    snippets without touching the real tree. Runs per-file rules plus the
    RL009 audit; project rules need ``lint_paths``/``analyze_paths``.
    """
    analysis = analyze_source(source, path, rules)
    violations = list(analysis.violations)
    if analysis.error is None and any(r.id == "RL009" for r in rules):
        from reprolint.rules.suppression_audit import audit_suppressions

        violations.extend(
            audit_suppressions(
                path=path,
                suppressions=analysis.suppressions,
                used=analysis.used_directives,
                evaluated_ids={r.id for r in file_rules(rules)},
            )
        )
    violations.sort(key=lambda v: (str(v.path), v.line, v.col, v.rule_id))
    return violations


def lint_file(path: Path, rules: Sequence[Rule]) -> List[Violation]:
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Violation(
                path=path,
                line=1,
                col=0,
                rule_id="E902",
                message=f"cannot read file: {exc}",
            )
        ]
    return lint_source(source, path, rules)


def lint_paths(paths: Sequence[Path], rules: Sequence[Rule]) -> List[Violation]:
    """Full pipeline over paths: per-file, project, and audit passes."""
    from reprolint.analyzer import analyze_paths

    return analyze_paths(paths, rules).violations
