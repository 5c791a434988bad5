"""Pass 1: module registry and import-graph extraction.

The project pass turns a set of analyzed files into a
:class:`ProjectContext`: a registry mapping dotted module names to paths
plus, per module, the sequence of :class:`ImportRecord` edges found in
its AST. Project-scoped rules (layering, parity provenance) consume this
instead of re-walking trees, which is what keeps warm cached runs cheap —
import records are serialized into the incremental cache, so a run where
no file changed never re-parses anything yet still re-checks the whole
graph.

Module names are resolved the same way the import system would: a file
belongs to a package iff every directory up to the package root carries
an ``__init__.py``. Scripts outside any package (``benchmarks/*.py``,
``examples/*.py``) resolve to ``None`` and are invisible to the project
pass by construction.

The same parse also yields each file's *usage*: how often every
identifier occurs outside imports, ``__all__`` and docstrings, plus the
public definitions (functions, classes, methods, module constants) it
makes. An identifier reached as an attribute or spelled as a string
counts under ``.name``, a bare name or call keyword under ``name``
(:func:`reaching_uses` reads them back). RL010 sums the identifier
counts over the reference roots (:data:`REFERENCE_ROOTS`) to find
``src/`` definitions that nothing uses; the counts are cached with the
rest of the per-file result.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Definition",
    "ImportRecord",
    "ProjectContext",
    "ProjectRule",
    "REFERENCE_ROOTS",
    "collect_imports",
    "collect_usage",
    "module_from_parts",
    "module_name",
    "project_root",
    "reaching_uses",
]

#: Top-level directories whose code counts as a use of a ``src/``
#: definition. ``tests/`` is deliberately absent: a definition only a
#: test calls is dead to the system.
REFERENCE_ROOTS: Tuple[str, ...] = (
    "src", "benchmarks", "examples", "tools", "perfbench",
)


@dataclass(frozen=True)
class ImportRecord:
    """One import statement edge, resolved to an absolute dotted target.

    ``target`` is the module named by the statement (for ``from m import
    a, b`` it is ``m``; the engine expands ``names`` against the module
    registry to catch submodule imports). Relative imports are resolved
    against the importing module before the record is created.
    """

    target: str
    names: Tuple[str, ...]
    line: int
    col: int
    type_checking: bool
    function_scope: bool

    def to_json(self) -> List[object]:
        return [
            self.target,
            list(self.names),
            self.line,
            self.col,
            self.type_checking,
            self.function_scope,
        ]

    @staticmethod
    def from_json(data: Sequence[object]) -> "ImportRecord":
        target, names, line, col, type_checking, function_scope = data
        return ImportRecord(
            target=str(target),
            names=tuple(str(n) for n in names),  # type: ignore[union-attr]
            line=int(line),  # type: ignore[arg-type]
            col=int(col),  # type: ignore[arg-type]
            type_checking=bool(type_checking),
            function_scope=bool(function_scope),
        )


@dataclass(frozen=True)
class Definition:
    """One public function, method, class or module-level constant
    defined in a module.

    ``own_uses`` counts the uses of its name inside the definition
    itself that :func:`reaching_uses` would count (recursion, a
    constant's own assignment target), which are not uses by anyone
    else.
    """

    qualname: str
    line: int
    col: int
    own_uses: int

    def to_json(self) -> List[object]:
        return [self.qualname, self.line, self.col, self.own_uses]

    @staticmethod
    def from_json(data: Sequence[object]) -> "Definition":
        qualname, line, col, own_uses = data
        return Definition(
            qualname=str(qualname),
            line=int(line),  # type: ignore[arg-type]
            col=int(col),  # type: ignore[arg-type]
            own_uses=int(own_uses),  # type: ignore[arg-type]
        )


def project_root(path: Path) -> Optional[Path]:
    """The directory holding the nearest ``src`` ancestor of ``path``."""
    for parent in path.resolve().parents:
        if parent.name == "src":
            return parent.parent
    return None


def module_name(path: Path) -> Optional[str]:
    """Dotted module name for ``path``, or ``None`` outside any package."""
    try:
        resolved = path.resolve()
    except OSError:
        return None
    if resolved.name == "__init__.py":
        parts: List[str] = []
        pkg_dir = resolved.parent
    else:
        parts = [resolved.stem]
        pkg_dir = resolved.parent
    if not (pkg_dir / "__init__.py").is_file():
        return None
    while (pkg_dir / "__init__.py").is_file():
        parts.append(pkg_dir.name)
        pkg_dir = pkg_dir.parent
    return ".".join(reversed(parts))


def module_from_parts(path: Path) -> Optional[str]:
    """Virtual-path fallback: derive ``repro.x.y`` from path components.

    Used for rule applicability when linting in-memory sources at paths
    that do not exist on disk (the self-test fixtures). Returns the
    dotted tail starting at the ``repro`` component, or ``None``.
    """
    parts = path.parts
    if "repro" not in parts:
        return None
    tail = list(parts[parts.index("repro"):])
    tail[-1] = Path(tail[-1]).stem
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
        and isinstance(test.value, ast.Name)
        and test.value.id in {"typing", "t", "typing_extensions"}
    )


class _ImportVisitor(ast.NodeVisitor):
    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.records: List[ImportRecord] = []
        self._type_checking = 0
        self._function = 0

    # -- scope tracking ------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking += 1
            for child in node.body:
                self.visit(child)
            self._type_checking -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def _visit_function(self, node: ast.AST) -> None:
        self._function += 1
        self.generic_visit(node)
        self._function -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- imports -------------------------------------------------------

    def _add(self, target: str, names: Tuple[str, ...], node: ast.stmt) -> None:
        self.records.append(
            ImportRecord(
                target=target,
                names=names,
                line=node.lineno,
                col=node.col_offset,
                type_checking=self._type_checking > 0,
                function_scope=self._function > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, (), node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = self._resolve(node)
        if target is not None:
            self._add(target, tuple(a.name for a in node.names), node)

    def _resolve(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        base_parts = self.module.split(".")
        # A module's level-1 base is its own package; a package __init__'s
        # level-1 base is the package itself.
        drop = (0 if self.is_package else 1) + (node.level - 1)
        if drop > len(base_parts):
            return None  # relative import escaping the package root
        base = base_parts[: len(base_parts) - drop] if drop else base_parts
        if not base:
            return None
        if node.module:
            return ".".join(base) + "." + node.module
        return ".".join(base)


def collect_imports(
    tree: ast.Module, module: str, is_package: bool
) -> Tuple[ImportRecord, ...]:
    """Extract resolved import edges from a parsed module."""
    visitor = _ImportVisitor(module, is_package)
    visitor.visit(tree)
    return tuple(visitor.records)


_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstring(body: Sequence[ast.stmt]) -> Optional[ast.AST]:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0].value
    return None


def _is_all_binding(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _count_names(root: ast.AST, counts: Dict[str, int]) -> None:
    """Add every identifier use under ``root`` to ``counts``.

    A use is a ``Name`` or a call keyword (counted under ``name``), or an
    ``Attribute``'s attribute or a string constant spelled like an
    identifier (counted under ``.name``). Imports carry no such nodes;
    ``__all__`` bindings and docstrings are skipped.
    """
    skip = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if _is_all_binding(node):
            continue
        if isinstance(node, (ast.Module, *_DEF_NODES)):
            doc = _docstring(node.body)
            if doc is not None:
                skip.add(id(doc))
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = "." + node.attr
        elif isinstance(node, ast.keyword):
            name = node.arg
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skip
        ):
            name = "." + node.value
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
        stack.extend(ast.iter_child_nodes(node))


def _constant_names(node: ast.stmt) -> List[str]:
    """Public UPPER_CASE names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    return [
        t.id
        for t in targets
        if isinstance(t, ast.Name) and t.id[0].isalpha() and t.id.isupper()
    ]


def _definitions(
    body: Sequence[ast.stmt], prefix: str, out: List[Definition]
) -> None:
    for node in body:
        if isinstance(node, _DEF_NODES):
            names = [] if node.name.startswith("_") else [node.name]
        elif not prefix:
            names = _constant_names(node)
        else:
            continue
        for name in names:
            own: Dict[str, int] = {}
            _count_names(node, own)
            out.append(
                Definition(
                    qualname=prefix + name,
                    line=node.lineno,
                    col=node.col_offset,
                    own_uses=reaching_uses(own, prefix + name),
                )
            )
        if isinstance(node, ast.ClassDef):
            _definitions(node.body, f"{prefix}{node.name}.", out)


def reaching_uses(counts: Mapping[str, int], qualname: str) -> int:
    """How many of the uses in ``counts`` can reach ``qualname``.

    A module-level definition is reached by its bare name, an attribute
    or a string. A method or nested class is reached only as an
    attribute or a string: a bare ``Name`` of the same spelling is some
    other binding (a local, a parameter, a module function).
    """
    name = qualname.rsplit(".", 1)[-1]
    reached = counts.get("." + name, 0)
    if "." not in qualname:
        reached += counts.get(name, 0)
    return reached


def collect_usage(
    tree: ast.Module,
) -> Tuple[Dict[str, int], Tuple[Definition, ...]]:
    """A module's identifier-use counts and its public definitions.

    Definitions are module-level functions, classes and UPPER_CASE
    constants and, recursively, the methods and nested classes of
    classes; functions defined inside functions are local and not
    listed.
    """
    counts: Dict[str, int] = {}
    _count_names(tree, counts)
    definitions: List[Definition] = []
    _definitions(tree.body, "", definitions)
    return counts, tuple(definitions)


@dataclass
class ProjectContext:
    """The whole-repo view consumed by project-scoped rules.

    ``definitions`` holds the public definitions of the modules under a
    ``src/`` directory and ``uses`` the identifier counts summed over
    the reference roots; both are filled only when RL010 runs.
    """

    modules: Dict[str, Path] = field(default_factory=dict)
    imports: Dict[str, Tuple[ImportRecord, ...]] = field(default_factory=dict)
    definitions: Dict[str, Tuple[Definition, ...]] = field(default_factory=dict)
    uses: Dict[str, int] = field(default_factory=dict)

    def add(
        self, module: str, path: Path, records: Tuple[ImportRecord, ...]
    ) -> None:
        if module in self.modules:
            return  # first registration wins on duplicate module names
        self.modules[module] = path
        self.imports[module] = records

    def resolved_edges(
        self, module: str
    ) -> Iterator[Tuple[str, ImportRecord]]:
        """Expand one module's records into (imported module, record) pairs.

        ``from pkg import sub`` names the submodule ``pkg.sub`` when that
        module exists in the registry; otherwise the edge targets ``pkg``
        itself (the name is an attribute).
        """
        for record in self.imports.get(module, ()):
            expanded = False
            for name in record.names:
                candidate = f"{record.target}.{name}"
                if candidate in self.modules:
                    expanded = True
                    yield candidate, record
            if not expanded:
                yield record.target, record

    def signature(self) -> str:
        """Content hash of the import graph (targets + gating flags).

        Changes whenever any edge appears, disappears, or moves between
        runtime and ``TYPE_CHECKING`` scope — the exact set of events that
        can change project-pass results.
        """
        digest = hashlib.sha256()
        for module in sorted(self.imports):
            digest.update(module.encode())
            for target, record in sorted(
                self.resolved_edges(module), key=lambda e: (e[0], e[1].line)
            ):
                digest.update(
                    f"|{target}:{int(record.type_checking)}"
                    f":{int(record.function_scope)}".encode()
                )
            digest.update(b"\n")
        return digest.hexdigest()


class ProjectRule:
    """Mixin marker for rules that run in the project pass.

    Project rules implement :meth:`check_module` instead of ``check``;
    the engine calls it once per registered module with the module's
    cached import records and the full :class:`ProjectContext`.
    """

    scope = "project"
    #: Set by rules that read ``ProjectContext.definitions``/``uses``.
    needs_usage = False

    def check_module(
        self,
        module: str,
        path: Path,
        records: Tuple[ImportRecord, ...],
        project: ProjectContext,
    ) -> Iterator[object]:
        raise NotImplementedError
