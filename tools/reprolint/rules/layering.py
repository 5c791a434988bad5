"""RL006 — layering conformance against the declared layer DAG.

``docs/architecture.md`` declares the package layering in prose:
foundation (units/rng/errors) at the bottom, then the sim kernel, device
and edge passive models, the vectorized backend, the BO/core controller
stack, the sim harness, fleet, and finally the experiments/CLI shell.
This rule makes that DAG normative: every intra-``repro`` import edge
must point downward or sideways. Upward imports are violations even when
gated behind ``TYPE_CHECKING`` — a type-only edge still couples the
layers and tends to become a runtime edge under refactoring.

Bands are assigned by longest dotted-prefix match, so a submodule can be
pinned lower than its package (``repro.sim.clock`` is kernel-level even
though the ``repro.sim`` harness sits above ``repro.core``; ``repro.
edge.share`` is a passive leaf below ``repro.backend`` even though the
edge runtime sits above it). Documented backward-compat seams are
allowlisted explicitly rather than by weakening the bands.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from reprolint.engine import FileContext, Rule, Violation
from reprolint.project import ImportRecord, ProjectContext, ProjectRule

# Ordered low -> high. An import may only target the same or a lower band.
LAYER_BANDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("foundation", ("repro.errors", "repro.units", "repro.rng")),
    ("sim-kernel", ("repro.sim.clock", "repro.sim.trace")),
    ("observability", ("repro.obs",)),
    (
        "device-static",
        (
            "repro.device.resources",
            "repro.device.soc",
            "repro.device.thermal",
            "repro.device.profiles",
            "repro.device.load",
        ),
    ),
    ("ar", ("repro.ar",)),
    (
        "models-edge-passive",
        (
            "repro.models",
            "repro.edge.share",
            "repro.edge.link",
            "repro.edge.server",
            "repro.edge.admission",
            "repro.edge.topology",
            "repro.edge.placement",
            # Passive report/value module: fleet aggregates and
            # convergence math, no upward knowledge of the fleet.
            "repro.fleet.telemetry",
        ),
    ),
    ("backend", ("repro.backend",)),
    ("device-dynamic", ("repro.device", "repro.edge")),
    ("bo", ("repro.bo",)),
    ("core", ("repro.core",)),
    ("baselines", ("repro.baselines", "repro.userstudy")),
    ("sim-harness", ("repro.sim",)),
    # Explicit pins for the SoA core: `table` carries the fleet's typed
    # surface (SessionSpec/HBOConfig/DeviceSimulator references), and
    # `shard` is the process-orchestration top of the package — both
    # stay in the fleet band even though they look lower-level.
    ("fleet", ("repro.fleet", "repro.fleet.table", "repro.fleet.shard")),
    # The scenario engine composes fleet configs (so it sits above fleet)
    # but is itself driven by experiments and the CLI (so below app). It
    # must never import `repro.experiments`: the legacy schedule moved
    # down into `repro.scenarios.generator` and the app band re-exports.
    ("scenarios", ("repro.scenarios",)),
    ("app", ("repro.experiments", "repro.cli", "repro.__main__")),
)

# Documented backward-compat seams: (importing module, imported module).
# Each entry must be an upward edge (a downward one never fires) and must
# correspond to a re-export noted in docs/architecture.md.
ALLOWLIST: FrozenSet[Tuple[str, str]] = frozenset()

_PREFIX_TO_BAND: Dict[str, int] = {}
_BAND_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYER_BANDS)
for _idx, (_name, _prefixes) in enumerate(LAYER_BANDS):
    for _prefix in _prefixes:
        _PREFIX_TO_BAND[_prefix] = _idx

_APP_BAND = len(LAYER_BANDS) - 1


def band_of(module: str) -> Optional[int]:
    """Band index for ``module`` by longest-prefix match, None if unmapped."""
    if module == "repro":
        # The package facade re-exports the public API; it sits at the top.
        return _APP_BAND
    best: Optional[Tuple[int, int]] = None  # (prefix length, band)
    for prefix, band in _PREFIX_TO_BAND.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), band)
    return best[1] if best else None


class LayeringRule(Rule, ProjectRule):
    id = "RL006"
    summary = "imports must respect the declared layer DAG (no upward edges)"
    scope = "project"

    def applies(self, ctx: FileContext) -> bool:  # pragma: no cover - unused
        return True

    def check_module(
        self,
        module: str,
        path: Path,
        records: Tuple[ImportRecord, ...],
        project: ProjectContext,
    ) -> Iterator[Violation]:
        importer_band = band_of(module)
        if importer_band is None:
            return
        for target, record in project.resolved_edges(module):
            if target == module:
                continue
            target_band = band_of(target)
            if target_band is None or target_band <= importer_band:
                continue
            if (module, target) in ALLOWLIST:
                continue
            gate = " [TYPE_CHECKING-gated]" if record.type_checking else ""
            yield Violation(
                path=path,
                line=record.line,
                col=record.col,
                rule_id=self.id,
                message=(
                    f"`{module}` (layer '{_BAND_NAMES[importer_band]}') imports "
                    f"`{target}` (layer '{_BAND_NAMES[target_band]}'){gate} — "
                    "upward edges violate the declared layer DAG; invert the "
                    "dependency or move the shared type down a layer"
                ),
            )
