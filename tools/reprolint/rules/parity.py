"""RL008 — parity single-source: registered float formulas live in leaves.

The scalar↔backend bitwise-parity contract (PR 4/5) holds because every
float formula that both paths evaluate is written exactly once, in a
declared leaf module, and called from both sides: edge pricing in
``repro.edge.share``, contention/processor-sharing slowdown in the same
leaf plus ``repro.device.soc``, the Eq. 2/4/5 cost terms in
``repro.core.cost`` / ``repro.ar``, the Eq. 1 column form
(``eq1_columns`` / ``eq1_errors``) in ``repro.ar.degradation``, its
Eq. 2 column body (``eq2_quality``) in ``repro.ar.quality``, and the
render-load culling term (``culled_fraction``) in ``repro.ar.renderer``. A
second hand-written copy of any of these formulas can drift by a single
association or rounding and break bitwise parity without failing any
behavioral test.

This rule flags three shapes of duplication outside the allowed modules:

- a function *named* like a registered formula (``slowdown``,
  ``reward``, ``object_quality``, ...) whose body performs arithmetic;
- an assignment to a registered cost-term name (``phi``, ``epsilon``,
  ``quality``) whose value is an arithmetic expression;
- an arithmetic expression (``+ - * **``) combining two or more
  edge-pricing terms (calls to, or names bound from, the
  ``edge_*``/``sharing_slowdown`` helpers). Ratios (``/``) of pricing
  terms are deliberately exempt: duty cycles and fractions are consumer
  formulas, not re-derivations of the price.

The fix for a true positive is always the same: move the formula into
the leaf module and call it from both sites.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set

from reprolint.engine import FileContext, Rule, Violation

_EDGE_HELPERS: FrozenSet[str] = frozenset(
    {
        "edge_tx_ms",
        "edge_compute_ms",
        "edge_slowdown",
        "edge_demand",
        "edge_total_ms",
        "edge_queue_ms",
        "sharing_slowdown",
    }
)
_EDGE_ALLOWED: FrozenSet[str] = frozenset(
    {"repro.edge.share", "repro.backend.solve", "repro.device.contention"}
)

# Function names that *are* registered formulas, grouped with the modules
# allowed to define them. Exact-name matching: `energy_aware_cost` is a
# composition, not a re-derivation, and is not matched.
_DEF_FAMILIES: Dict[str, FrozenSet[str]] = {}
for _name in _EDGE_HELPERS:
    _DEF_FAMILIES[_name] = _EDGE_ALLOWED
for _name in ("slowdown", "render_penalty", "contention_slowdown"):
    _DEF_FAMILIES[_name] = _EDGE_ALLOWED | frozenset({"repro.device.soc"})
_COST_ALLOWED = frozenset({"repro.core.cost", "repro.backend.solve"})
for _name in ("normalized_average_latency", "reward", "cost", "latency_cost"):
    _DEF_FAMILIES[_name] = _COST_ALLOWED
_QUALITY_ALLOWED = frozenset(
    {"repro.ar.quality", "repro.ar.degradation", "repro.backend.solve"}
)
for _name in (
    "object_quality",
    "average_quality",
    "eq2_quality",
    "eq1_columns",
    "eq1_errors",
):
    _DEF_FAMILIES[_name] = _QUALITY_ALLOWED
for _name in ("culled_fraction", "culled_fractions"):
    _DEF_FAMILIES[_name] = frozenset({"repro.ar.renderer"})

# Assignment targets that name registered cost quantities.
_TARGET_FAMILIES: Dict[str, FrozenSet[str]] = {
    "phi": _COST_ALLOWED,
    "epsilon": _COST_ALLOWED,
    "quality": _QUALITY_ALLOWED,
}

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow)


def _leaf_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _pruned_descendants(node: ast.AST) -> Iterator[ast.AST]:
    """All descendants of ``node``, pruning nested function-def subtrees."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from _pruned_descendants(child)


def _has_arith_binop(node: ast.AST) -> bool:
    return any(
        isinstance(child, ast.BinOp) and isinstance(child.op, _ARITH_OPS)
        for child in ast.walk(node)
    )


class ParitySingleSourceRule(Rule):
    id = "RL008"
    summary = "registered parity formulas may only be written in their leaf modules"

    def applies(self, ctx: FileContext) -> bool:
        module = ctx.dotted_module()
        return module is not None and (
            module == "repro" or module.startswith("repro.")
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module = ctx.dotted_module()
        assert module is not None
        yield from self._check_scope(ctx, module, ctx.tree.body)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def_name(ctx, module, node)
                yield from self._check_scope(ctx, module, node.body)

    # -- re-derived formula functions ----------------------------------

    def _check_def_name(
        self, ctx: FileContext, module: str, node: ast.AST
    ) -> Iterator[Violation]:
        name = node.name  # type: ignore[attr-defined]
        allowed = _DEF_FAMILIES.get(name)
        if allowed is None or module in allowed:
            return
        if not any(_has_arith_binop(stmt) for stmt in node.body):  # type: ignore[attr-defined]
            return
        yield self.violation(
            ctx,
            node,
            f"`def {name}` re-derives a registered parity formula outside "
            f"its leaf modules ({', '.join(sorted(allowed))}) — call the "
            "leaf implementation instead",
        )

    # -- one lexical scope: assignments + edge-term combination --------

    def _check_scope(
        self, ctx: FileContext, module: str, body: Sequence[ast.stmt]
    ) -> Iterator[Violation]:
        tainted: Set[str] = set()
        top_binops: List[ast.BinOp] = []
        nested: Set[int] = set()
        for node in self._scope_walk(body):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                yield from self._check_target_names(ctx, module, node)
                value = getattr(node, "value", None)
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(value, ast.Call)
                    and _leaf_name(value.func) in _EDGE_HELPERS
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
            if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
                top_binops.append(node)
                for side in (node.left, node.right):
                    if isinstance(side, ast.BinOp) and isinstance(
                        side.op, _ARITH_OPS
                    ):
                        nested.add(id(side))
        if module in _EDGE_ALLOWED:
            return
        for binop in top_binops:
            if id(binop) in nested:
                continue
            terms = self._tainted_terms(binop, tainted)
            if len(terms) >= 2:
                yield self.violation(
                    ctx,
                    binop,
                    "arithmetic combines edge-pricing terms "
                    f"({', '.join(sorted(set(terms)))}) outside the parity "
                    f"leaves ({', '.join(sorted(_EDGE_ALLOWED))}) — move the "
                    "formula into repro.edge.share and call it",
                )

    def _scope_walk(self, body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
        """Walk one scope without descending into nested function defs."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield stmt
            yield from _pruned_descendants(stmt)

    def _check_target_names(
        self, ctx: FileContext, module: str, node: ast.stmt
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value: Optional[ast.expr] = node.value
        else:
            targets = [node.target]  # type: ignore[attr-defined]
            value = getattr(node, "value", None)
        if value is None or not (
            isinstance(value, ast.BinOp) and isinstance(value.op, _ARITH_OPS)
        ):
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            allowed = _TARGET_FAMILIES.get(target.id)
            if allowed is None or module in allowed:
                continue
            yield self.violation(
                ctx,
                node,
                f"assignment computes registered cost quantity `{target.id}` "
                f"outside its leaf modules ({', '.join(sorted(allowed))}) — "
                "call the leaf formula instead of re-deriving it",
            )

    def _tainted_terms(
        self, binop: ast.BinOp, tainted: Set[str]
    ) -> List[str]:
        """Names of edge-pricing terms appearing in an arithmetic tree.

        Descends only through arithmetic BinOps and unary minus, so terms
        hidden inside calls or subscripts do not count.
        """
        terms: List[str] = []

        def visit(node: ast.expr) -> None:
            if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
                visit(node.left)
                visit(node.right)
            elif isinstance(node, ast.UnaryOp):
                visit(node.operand)
            elif isinstance(node, ast.Call):
                leaf = _leaf_name(node.func)
                if leaf in _EDGE_HELPERS:
                    terms.append(leaf + "(...)")
            elif isinstance(node, ast.Name) and node.id in tainted:
                terms.append(node.id)

        visit(binop)
        return terms
