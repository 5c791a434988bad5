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
}

#: Library surface outside the paper's loop that tier-1 tests exercise by
#: name, grouped under one reason each; it stays until it gets a caller in
#: the roots or is retired together with its tests.
_TESTED_LIBRARY_SURFACE: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "LOD cache and decimation-server model of the Fig. 3 server",
        (
            "repro.ar.cache.DecimationServer",
            "repro.ar.cache.DecimationServer.fetch",
            "repro.ar.cache.DecimationServer.train_parameters",
        ),
    ),
    (
        "mesh utilities for user assets: generators, normals, OBJ I/O",
        (
            "repro.ar.mesh.TriangleMesh.face_normals",
            "repro.ar.mesh.make_box",
            "repro.ar.mesh.make_cylinder",
            "repro.ar.meshio.save_obj",
            "repro.ar.meshio.load_obj",
        ),
    ),
    (
        "FPS-floor estimate; the paper scopes frame rate out of quality",
        ("repro.ar.renderer.RenderLoadModel.frame_time_ms",),
    ),
    (
        "per-object ratio edit of the scene API (TD uses the sorted row)",
        ("repro.ar.scene.Scene.apply_ratios",),
    ),
    (
        "GP model selection and posterior draws beside the fixed Eq. 7 fit",
        (
            "repro.bo.gp.GaussianProcess.optimized_over_length_scales",
            "repro.bo.gp.GaussianProcess.sample_posterior",
            "repro.bo.kernels.WhiteNoise",
        ),
    ),
    (
        "standalone optimizer API for objectives outside the MAR loop",
        (
            "repro.bo.optimizer.BayesianOptimizer.minimize",
            "repro.bo.space._RowSpace.perturb",
        ),
    ),
    (
        "batched offload of observations to the remote optimizer",
        (
            "repro.core.remote.OffloadStats.mean_bytes_per_exchange",
            "repro.core.remote.RemoteOptimizerProxy.tell_many",
        ),
    ),
    (
        "delegate-failure injection on the device model",
        (
            "repro.device.executor.DeviceSimulator.failed_resources",
            "repro.device.executor.DeviceSimulator.fail_resource",
            "repro.device.executor.DeviceSimulator.restore_resource",
        ),
    ),
    (
        "energy lookups for users of the device model",
        (
            "repro.device.power.PowerModel.period_energy_j",
            "repro.models.zoo.ModelZoo.isolation_table",
        ),
    ),
    (
        "per-session fleet result lookups",
        (
            "repro.fleet.scheduler.FleetResult.report_for",
            "repro.fleet.telemetry.cost_trajectories",
        ),
    ),
    (
        "NNAPI op-graph partition model behind the npu_coverage figures",
        (
            "repro.models.ops.OpGraph.partition_count",
            "repro.models.ops.build_op_graph",
            "repro.models.ops.partition_for_nnapi",
        ),
    ),
    (
        "metrics API: before/after snapshot deltas",
        ("repro.obs.metrics.snapshot_delta",),
    ),
    (
        "JSON loaders that read back what the export helpers write",
        (
            "repro.scenarios.catalog.load_spec",
            "repro.sim.export.trace_to_dict",
            "repro.sim.export.trace_from_dict",
            "repro.sim.export.allocation_from_dict",
            "repro.sim.export.load_json",
        ),
    ),
    (
        "batched opinion scores for simulator users",
        ("repro.userstudy.perception.PerceptionModel.mean_opinion_score_batch",),
    ),
)
ALLOWLIST.update(
    {name: reason for reason, names in _TESTED_LIBRARY_SURFACE for name in names}
)


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
