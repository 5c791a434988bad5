"""RL010 — no public definition under ``src/`` that nothing uses.

A public (non-underscore) function, method, class or module-level
UPPER_CASE constant defined under ``src/`` must have a use site
somewhere in the reference roots:
``src/``, ``benchmarks/``, ``examples/``, ``tools/`` and ``perfbench/``
(:data:`reprolint.project.REFERENCE_ROOTS`). ``tests/`` is not a root:
code that only its own tests call is dead to the system, and its tests
pin behaviour nobody runs.

A use site is an identifier anywhere in those roots — a ``Name``, an
``Attribute``'s attribute or a call keyword — outside the definition's
own body, or a string constant exactly equal to the name
(``getattr(obj, "name")``, a patch target). Three things are not uses:
``import`` lines, ``__all__`` entries and docstrings, so a package
re-export alone does not keep a definition alive. Matching is by bare
name across the whole tree, which errs toward keeping code: any other
definition or attribute of the same name counts as a use.

The roots outside the linted paths are found from the ``src`` directory
of the linted tree and parsed for names only; their identifier counts
are cached like every per-file result, so a warm run re-parses nothing.

The fix for a finding is to delete the definition (and the tests whose
only subject it was), to port those tests onto the production path, or
to list it in :data:`ALLOWLIST` below with a one-line reason.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, Tuple

from reprolint.engine import FileContext, Rule, Violation
from reprolint.project import ImportRecord, ProjectContext, ProjectRule

#: Dotted definition name → why it stays without a use in the roots.
ALLOWLIST: Dict[str, str] = {
    "repro.device.contention.ContentionModel.task_latency": (
        "scalar per-task reference the backend parity suite checks "
        "`solve` against"
    ),
    "repro.device.executor.DeviceSimulator.steady_state_latencies": (
        "noise-free reference the measurement, thermal and edge tests "
        "check `measure_period` against"
    ),
    "repro.fleet.telemetry.iterations_to_converge": (
        "per-report reference the tests check the fleet table's "
        "convergence column against"
    ),
    "repro.fleet.telemetry.fleet_aggregates": (
        "per-report reference the tests check `SessionTable.aggregates` "
        "against"
    ),
    "repro.fleet.telemetry.convergence_histogram": (
        "per-report reference the tests check `SessionTable.histogram` "
        "against"
    ),
    "repro.bo.gp.GaussianProcess.optimized_over_length_scales": (
        "length-scale model selection for the planned A54 length-scale "
        "diagnosis (ROADMAP item 5)"
    ),
    "repro.scenarios.catalog.load_spec": (
        "typed-error reader of `repro scenario export` output, the target "
        "of the planned catalog-JSON fuzz test (ROADMAP item 2)"
    ),
}

class UnreferencedDefinitionRule(Rule, ProjectRule):
    id = "RL010"
    summary = "public src/ definitions must be used outside tests/"
    scope = "project"
    needs_usage = True

    def applies(self, ctx: FileContext) -> bool:  # pragma: no cover - unused
        return True

    def check_module(
        self,
        module: str,
        path: Path,
        records: Tuple[ImportRecord, ...],
        project: ProjectContext,
    ) -> Iterator[Violation]:
        for definition in project.definitions.get(module, ()):
            dotted = f"{module}.{definition.qualname}"
            if dotted in ALLOWLIST:
                continue
            if project.uses.get(definition.name, 0) > definition.own_uses:
                continue
            yield Violation(
                path=path,
                line=definition.line,
                col=definition.col,
                rule_id=self.id,
                message=(
                    f"`{dotted}` is public but nothing in src/, benchmarks/, "
                    "examples/, tools/ or perfbench/ uses it — delete it, "
                    "use it, or allowlist it with a reason in "
                    "reprolint/rules/dead_code.py"
                ),
            )
