"""Self-tests for reprolint v2's project-wide machinery.

Where ``test_reprolint.py`` pins the per-file rules RL001–RL005, this
suite covers the multi-pass analyzer introduced with reprolint 2.0:

- RL006 layering conformance over fixture mini-packages (upward edges,
  TYPE_CHECKING-gated edges, the documented allowlist);
- RL007 RNG-stream discipline and RL008 parity single-source on scoped
  fixture sources;
- RL010 unreferenced public ``src/`` definitions over fixture trees
  with ``perfbench/``, ``benchmarks/`` and ``tests/`` siblings, and its
  documented allowlist;
- RL009 stale/unknown suppression auditing, including the rules for when
  a directive is auditable at all;
- the content-hash incremental cache (warm runs reanalyze only changed
  files; graph changes propagate through cached import records);
- baseline load/filter/update semantics and the checked-in empty
  ``reprolint_baseline.json``;
- SARIF 2.1.0 emission (schema fields, rule catalog coverage, relative
  POSIX artifact URIs);
- CLI exit codes and the summary line, including the engine-error → 2
  contract;
- suppression-parsing edge cases (``disable=all`` combos, file+line
  interaction, malformed ids, continuation-line anchoring).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS_DIR = REPO_ROOT / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

from reprolint import ALL_RULES, analyze_paths, lint_source, rules_by_id  # noqa: E402
from reprolint.baseline import (  # noqa: E402
    filter_baselined,
    load_baseline,
    write_baseline,
)
from reprolint.cli import main as reprolint_main  # noqa: E402
from reprolint.engine import Violation, parse_suppressions  # noqa: E402
from reprolint.project import collect_imports, module_name  # noqa: E402
from reprolint.rules import dead_code, layering  # noqa: E402
from reprolint.rules.layering import ALLOWLIST, band_of  # noqa: E402
from reprolint.sarif import to_sarif  # noqa: E402

import ast  # noqa: E402


def dedent(source: str) -> str:
    return textwrap.dedent(source)


def write_package(root: Path, files: "dict[str, str]") -> Path:
    """Materialize a mini ``repro`` package tree under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source), encoding="utf-8")
        # Every ancestor dir up to root needs an __init__.py so
        # module_name() resolves the dotted path.
        for parent in path.parents:
            if parent == root:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return root


def run_all(root: Path, cache_dir: "Path | None" = None):
    return analyze_paths([root], ALL_RULES, cache_dir=cache_dir)


def by_rule(violations, rule_id: str):
    return [v for v in violations if v.rule_id == rule_id]


# --------------------------------------------------------------- RL006


class TestLayeringRule:
    def test_band_assignment_longest_prefix_wins(self):
        assert band_of("repro.edge.share") < band_of("repro.edge.runtime")
        assert band_of("repro.sim.clock") < band_of("repro.core.controller")
        assert band_of("repro.sim") > band_of("repro.core")
        assert band_of("repro.device.load") < band_of("repro.ar.renderer")
        assert band_of("repro") == band_of("repro.cli")
        assert band_of("notrepro.thing") is None

    def test_upward_import_fires(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/sim/export.py": """\
                    from repro.fleet.scheduler import FleetResult
                    """,
            },
        )
        report = run_all(tmp_path)
        found = by_rule(report.violations, "RL006")
        assert len(found) == 1
        assert "`repro.sim.export`" in found[0].message
        assert "`repro.fleet.scheduler`" in found[0].message
        assert "upward" in found[0].message

    def test_type_checking_gated_upward_import_still_fires(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/device/soc.py": """\
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from repro.core.controller import HBOController
                    """,
            },
        )
        report = run_all(tmp_path)
        found = by_rule(report.violations, "RL006")
        assert len(found) == 1
        assert "[TYPE_CHECKING-gated]" in found[0].message

    def test_downward_and_sideways_imports_clean(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/core/controller.py": """\
                    from repro.errors import ConfigurationError
                    from repro.bo.gp import GaussianProcess
                    from repro.core.cost import cost_from_measurement
                    import repro.device.resources
                    """,
            },
        )
        report = run_all(tmp_path)
        assert by_rule(report.violations, "RL006") == []

    def test_allowlisted_seam_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            layering, "ALLOWLIST",
            frozenset({("repro.sim.export", "repro.fleet.scheduler")}),
        )
        write_package(
            tmp_path,
            {
                "repro/sim/export.py": """\
                    from repro.fleet.scheduler import FleetResult
                    """,
            },
        )
        report = run_all(tmp_path)
        assert by_rule(report.violations, "RL006") == []

    def test_allowlist_edges_are_upward(self):
        # A downward or sideways edge never fires, so its entry is stale.
        for importer, target in ALLOWLIST:
            assert band_of(target) > band_of(importer), (importer, target)

    def test_relative_import_resolution(self, tmp_path):
        # `from ..fleet import scheduler` inside repro/sim/export.py is
        # the same upward edge as the absolute spelling.
        write_package(
            tmp_path,
            {
                "repro/fleet/scheduler.py": "X = 1\n",
                "repro/sim/export.py": """\
                    from ..fleet import scheduler
                    """,
            },
        )
        report = run_all(tmp_path)
        found = by_rule(report.violations, "RL006")
        assert len(found) == 1
        assert "`repro.fleet.scheduler`" in found[0].message

    def test_suppression_silences_project_rule(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/sim/export.py": """\
                    from repro.fleet.scheduler import FleetResult  # reprolint: disable=RL006
                    """,
            },
        )
        report = run_all(tmp_path)
        assert by_rule(report.violations, "RL006") == []
        assert by_rule(report.violations, "RL009") == []  # directive used
        assert report.suppressed == 1

    def test_allowlist_entries_are_documented(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for importer, target in ALLOWLIST:
            assert importer in text and target in text, (
                f"allowlist edge {importer} -> {target} must be documented "
                "in docs/architecture.md"
            )


# --------------------------------------------------------------- RL007


RNG_PATH = Path("src/repro/fleet/fixture.py")


def lint_rng(source: str, path: Path = RNG_PATH):
    registry = rules_by_id()
    return lint_source(dedent(source), path, [registry["RL007"]])


class TestRngStreamRule:
    def test_module_level_rng_state_fires(self):
        violations = lint_rng(
            """\
            from repro.rng import make_rng

            rng = make_rng(0)
            """
        )
        assert [v.rule_id for v in violations] == ["RL007"]
        assert "module-level" in violations[0].message

    def test_draw_after_spawn_fires(self):
        violations = lint_rng(
            """\
            from repro.rng import spawn_rngs

            def run(rng, n):
                children = spawn_rngs(rng, n)
                return rng.normal()
            """
        )
        assert [v.rule_id for v in violations] == ["RL007"]
        assert "spawn" in violations[0].message

    def test_rebound_rng_after_spawn_is_clean(self):
        violations = lint_rng(
            """\
            from repro.rng import make_rng, spawn_rngs

            def run(rng, n):
                children = spawn_rngs(rng, n)
                rng = make_rng(7)
                return rng.normal()
            """
        )
        assert violations == []

    def test_threading_outer_rng_into_constructed_siblings_fires(self):
        violations = lint_rng(
            """\
            def build(rng, specs):
                return [Session(spec, rng) for spec in specs]
            """
        )
        assert [v.rule_id for v in violations] == ["RL007"]
        assert "sibling" in violations[0].message or "shared" in violations[0].message

    def test_sequential_draw_helpers_in_loops_are_clean(self):
        violations = lint_rng(
            """\
            def sample_all(space, rng, specs):
                return [space.sample(rng, 3) for _ in specs]
            """
        )
        assert violations == []

    def test_per_item_spawned_rngs_are_clean(self):
        violations = lint_rng(
            """\
            from repro.rng import spawn_rngs

            def build(rng, specs):
                out = []
                for spec, child_rng in zip(specs, spawn_rngs(rng, len(specs))):
                    out.append(Session(spec, child_rng))
                return out
            """
        )
        # spawn_rngs(rng, ...) then constructing with the *child* streams
        # is exactly the sanctioned pattern.
        assert violations == []

    def test_rng_module_itself_exempt(self):
        violations = lint_rng(
            "import numpy\n\nrng = numpy.random.default_rng(0)\n",
            path=Path("src/repro/rng.py"),
        )
        assert violations == []


# --------------------------------------------------------------- RL008


def lint_parity(source: str, path: Path):
    registry = rules_by_id()
    return lint_source(dedent(source), path, [registry["RL008"]])


class TestParitySingleSourceRule:
    def test_registered_def_outside_leaf_fires(self):
        violations = lint_parity(
            """\
            def edge_total_ms(profile, share):
                return profile.tx_ms + profile.compute_ms * 2.0
            """,
            Path("src/repro/core/fixture.py"),
        )
        assert [v.rule_id for v in violations] == ["RL008"]
        assert "edge_total_ms" in violations[0].message

    def test_registered_def_inside_leaf_is_clean(self):
        violations = lint_parity(
            """\
            def edge_total_ms(profile, share):
                return profile.tx_ms + profile.compute_ms * 2.0
            """,
            Path("src/repro/edge/share.py"),
        )
        assert violations == []

    def test_recombining_helper_results_fires(self):
        violations = lint_parity(
            """\
            from repro.edge.share import edge_compute_ms, edge_tx_ms

            def total(profile, share):
                tx = edge_tx_ms(profile, share)
                compute = edge_compute_ms(profile, share)
                return tx + compute
            """,
            Path("src/repro/device/fixture.py"),
        )
        assert [v.rule_id for v in violations] == ["RL008"]

    def test_ratio_of_helper_results_is_clean(self):
        # Duty ratios (division) are composition, not re-derivation.
        violations = lint_parity(
            """\
            from repro.edge.share import edge_total_ms, edge_tx_ms

            def duty(profile, share):
                tx = edge_tx_ms(profile, share)
                cycle = edge_total_ms(profile, share)
                return tx / cycle
            """,
            Path("src/repro/device/fixture.py"),
        )
        assert violations == []

    def test_single_helper_term_is_clean(self):
        violations = lint_parity(
            """\
            from repro.edge.share import edge_tx_ms

            def padded(profile, share, pad_ms):
                tx = edge_tx_ms(profile, share)
                return tx + pad_ms
            """,
            Path("src/repro/device/fixture.py"),
        )
        assert violations == []

    def test_phi_assignment_outside_cost_modules_fires(self):
        violations = lint_parity(
            """\
            def step(measurement, w):
                phi = w * measurement.epsilon
                return phi
            """,
            Path("src/repro/core/fixture.py"),
        )
        assert [v.rule_id for v in violations] == ["RL008"]

    def test_phi_assignment_in_cost_module_is_clean(self):
        violations = lint_parity(
            """\
            def latency_cost(epsilon, w):
                phi = w * epsilon
                return phi
            """,
            Path("src/repro/core/cost.py"),
        )
        assert violations == []

    def test_eq1_column_helper_outside_quality_leaves_fires(self):
        source = """\
            def eq1_errors(columns, ratios):
                return (columns.a * ratios**2 + columns.b * ratios + columns.c) / columns.denom
            """
        violations = lint_parity(source, Path("src/repro/core/fixture.py"))
        assert [v.rule_id for v in violations] == ["RL008"]
        assert "eq1_errors" in violations[0].message
        assert lint_parity(source, Path("src/repro/ar/degradation.py")) == []

    def test_eq2_column_helper_outside_quality_leaves_fires(self):
        source = """\
            def eq2_quality(columns, ratios):
                return (1.0 - eq1_errors(columns, ratios)).mean()
            """
        violations = lint_parity(source, Path("src/repro/ar/scene.py"))
        assert [v.rule_id for v in violations] == ["RL008"]
        assert "eq2_quality" in violations[0].message
        assert lint_parity(source, Path("src/repro/ar/quality.py")) == []

    def test_culling_formula_outside_renderer_fires(self):
        source = """\
            def culled_fraction(model, distance_m):
                factor = min(1.0, (model.reference_distance_m / distance_m) ** model.falloff)
                return model.backface_fraction * max(model.min_fraction, factor)
            """
        violations = lint_parity(source, Path("src/repro/core/frontier.py"))
        assert [v.rule_id for v in violations] == ["RL008"]
        assert "culled_fraction" in violations[0].message
        assert lint_parity(source, Path("src/repro/ar/renderer.py")) == []

    def test_out_of_scope_paths_ignored(self):
        violations = lint_parity(
            """\
            def edge_total_ms(profile, share):
                return profile.tx_ms + profile.compute_ms
            """,
            Path("scripts/fixture.py"),
        )
        assert violations == []


# --------------------------------------------------------------- RL010


def rl010(root: Path, cache_dir: "Path | None" = None):
    """Lint ``root/src`` with RL010 only; the rule finds the sibling
    reference roots (``benchmarks/``, ``perfbench/``, ...) itself."""
    return analyze_paths(
        [root / "src"], [rules_by_id()["RL010"]], cache_dir=cache_dir
    )


def rl010_names(report):
    return sorted(v.message.split("`")[1] for v in by_rule(report.violations, "RL010"))


class TestUnreferencedDefinitionRule:
    def test_unreferenced_public_def_fires(self, tmp_path):
        write_package(
            tmp_path / "src",
            {
                "repro/mod.py": """\
                    def used():
                        return 1


                    def unused():
                        return unused_helper()


                    def unused_helper():
                        return used()


                    class Box:
                        def lonely(self):
                            return self.lonely()

                        def _private(self):
                            return 0
                    """,
            },
        )
        report = rl010(tmp_path)
        # `unused_helper` is called from `unused`; `lonely` only calls
        # itself, and `Box` is named nowhere.
        assert rl010_names(report) == [
            "repro.mod.Box", "repro.mod.Box.lonely", "repro.mod.unused",
        ]
        assert by_rule(report.violations, "RL010")[0].path.name == "mod.py"

    def test_unreferenced_module_constant_fires(self, tmp_path):
        write_package(
            tmp_path / "src",
            {
                "repro/mod.py": """\
                    USED: float = 1.0
                    UNUSED = 2.0
                    TIERS = ("a", "b")
                    _PRIVATE = 3.0
                    Alias = float


                    class Box:
                        LIMIT = 4


                    def scale(x):
                        return x * USED
                    """,
            },
        )
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "test_bench.py").write_text(
            "from repro.mod import TIERS, Box, scale\n\n\n"
            "def test_scale():\n    scale(Box())\n    assert TIERS\n"
        )
        # Only module-level UPPER_CASE names count; the assignment target
        # itself is not a use.
        assert rl010_names(rl010(tmp_path)) == ["repro.mod.UNUSED"]

    def test_use_from_perfbench_or_benchmarks_is_clean(self, tmp_path):
        write_package(
            tmp_path / "src",
            {
                "repro/mod.py": """\
                    class Scheduler:
                        def step(self):
                            return 0


                    def solve():
                        return 0


                    def patched():
                        return 0
                    """,
            },
        )
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "layers.py").write_text(
            "from repro.mod import Scheduler\n"
            "PATCHES = [(Scheduler, 'step')]\n"
            "TARGET = 'patched'\n"
        )
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "test_bench.py").write_text(
            "import repro.mod\n\n\ndef test_solve():\n    repro.mod.solve()\n"
        )
        assert rl010_names(rl010(tmp_path)) == []

    def test_bare_name_does_not_keep_a_method_alive(self, tmp_path):
        write_package(
            tmp_path / "src",
            {
                "repro/mod.py": """\
                    class Device:
                        def profile_of(self, task):
                            return task

                        def measure(self):
                            return 0

                        def update(self):
                            return 0

                        def patched(self):
                            return 0


                    def helper(tasks):
                        return tasks


                    def run(tasks, device):
                        profile_of = {t: helper(t) for t in tasks}
                        return dict(profile_of, update=device.measure())
                    """,
            },
        )
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "layers.py").write_text(
            "from repro.mod import Device, run\n"
            "PATCHES = [(Device, 'patched')]\n"
            "run((), Device())\n"
        )
        # A method is reached only as an attribute or a string: the local
        # `profile_of` and the `update=` keyword are other bindings, while
        # the module-level `helper` is reached by its bare name.
        assert rl010_names(rl010(tmp_path)) == [
            "repro.mod.Device.profile_of", "repro.mod.Device.update",
        ]

    def test_use_only_from_tests_fires(self, tmp_path):
        write_package(
            tmp_path / "src", {"repro/mod.py": "def helper():\n    return 0\n"}
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from repro.mod import helper\n\n\n"
            "def test_helper():\n    assert helper() == 0\n"
        )
        assert rl010_names(rl010(tmp_path)) == ["repro.mod.helper"]

    def test_reexport_all_entry_and_docstring_are_not_uses(self, tmp_path):
        write_package(
            tmp_path / "src",
            {
                "repro/__init__.py": """\
                    \"\"\"Facade; see :func:`exported`.\"\"\"

                    from repro.mod import exported

                    __all__ = ["exported"]
                    """,
                "repro/mod.py": """\
                    __all__ = ["exported"]


                    def exported():
                        \"\"\"exported\"\"\"
                        return 0
                    """,
            },
        )
        assert rl010_names(rl010(tmp_path)) == ["repro.mod.exported"]

    def test_allowlisted_def_passes(self, tmp_path):
        allowlisted = "repro.fleet.telemetry.fleet_aggregates"
        assert allowlisted in dead_code.ALLOWLIST
        write_package(
            tmp_path / "src",
            {
                "repro/fleet/telemetry.py": """\
                    def fleet_aggregates(reports):
                        return len(reports)


                    def fleet_totals(reports):
                        return len(reports)
                    """,
            },
        )
        assert rl010_names(rl010(tmp_path)) == ["repro.fleet.telemetry.fleet_totals"]

    def test_allowlist_entries_are_documented(self):
        for name, reason in dead_code.ALLOWLIST.items():
            assert reason.strip(), f"RL010 allowlist entry {name} needs a reason"
        # Every entry still names a definition, so a stale one is noticed.
        report = analyze_paths(
            [REPO_ROOT / "src"], [rules_by_id()["RL010"]]
        )
        assert report.violations == []
        saved = dict(dead_code.ALLOWLIST)
        try:
            dead_code.ALLOWLIST.clear()
            unlisted = analyze_paths([REPO_ROOT / "src"], [rules_by_id()["RL010"]])
        finally:
            dead_code.ALLOWLIST.update(saved)
        assert rl010_names(unlisted) == sorted(saved)

    def test_warm_run_reparses_nothing(self, tmp_path):
        write_package(
            tmp_path / "src", {"repro/mod.py": "def solve():\n    return 0\n"}
        )
        (tmp_path / "tools").mkdir()
        caller = tmp_path / "tools" / "run.py"
        caller.write_text("import repro.mod\n\nrepro.mod.solve()\n")
        cache_dir = tmp_path / "cache"
        cold = rl010(tmp_path, cache_dir)
        assert cold.names_reparsed == [caller]
        warm = rl010(tmp_path, cache_dir)
        assert warm.names_reparsed == [] and warm.files_reanalyzed == []
        assert rl010_names(warm) == []
        # Dropping the only use surfaces the finding on the next run.
        caller.write_text("print('no use')\n")
        edited = rl010(tmp_path, cache_dir)
        assert edited.names_reparsed == [caller]
        assert rl010_names(edited) == ["repro.mod.solve"]


# --------------------------------------------------------------- RL009


class TestSuppressionAudit:
    def test_stale_directive_fires(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/core/clean.py": """\
                    x = 1  # reprolint: disable=RL003
                    """,
            },
        )
        report = run_all(tmp_path)
        found = by_rule(report.violations, "RL009")
        assert len(found) == 1
        assert "stale suppression" in found[0].message
        assert "RL003" in found[0].message

    def test_used_directive_is_not_stale(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/core/hot.py": """\
                    def close(a, b):
                        return a == b + 0.1  # reprolint: disable=RL003
                    """,
            },
        )
        report = run_all(tmp_path)
        assert by_rule(report.violations, "RL009") == []
        assert report.suppressed == 1

    def test_unknown_rule_id_fires(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/core/odd.py": """\
                    x = 1  # reprolint: disable=RL999
                    """,
            },
        )
        report = run_all(tmp_path)
        found = by_rule(report.violations, "RL009")
        assert any("unknown rule id" in v.message for v in found)

    def test_directive_not_auditable_when_rule_not_evaluated(self):
        # Only RL003 runs; a disable=RL001 directive cannot be judged
        # stale because its rule never executed.
        registry = rules_by_id()
        violations = lint_source(
            "x = 1  # reprolint: disable=RL001\n",
            Path("src/repro/core/fixture.py"),
            [registry["RL003"], registry["RL009"]],
        )
        assert violations == []

    def test_stale_disable_all_fires_project_wide(self, tmp_path):
        write_package(
            tmp_path,
            {
                "repro/core/allclean.py": """\
                    x = 1  # reprolint: disable=all
                    """,
            },
        )
        report = run_all(tmp_path)
        found = by_rule(report.violations, "RL009")
        assert len(found) == 1
        assert "stale suppression" in found[0].message


# --------------------------------------------------------------- cache


class TestIncrementalCache:
    def fixture_files(self):
        return {
            "repro/errors.py": "class ReproError(Exception):\n    pass\n",
            "repro/core/cost.py": (
                "from repro.errors import ReproError\n\nW = 1\n"
            ),
            "repro/sim/runner.py": (
                "from repro.core.cost import W\n\nTICK = 2\n"
            ),
        }

    def test_warm_run_reanalyzes_nothing(self, tmp_path):
        pkg = write_package(tmp_path / "pkg", self.fixture_files())
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([pkg], ALL_RULES, cache_dir=cache_dir)
        assert len(cold.files_reanalyzed) == cold.files_analyzed > 0
        warm = analyze_paths([pkg], ALL_RULES, cache_dir=cache_dir)
        assert warm.files_reanalyzed == []
        assert warm.files_analyzed == cold.files_analyzed
        assert [str(v) for v in warm.violations] == [
            str(v) for v in cold.violations
        ]

    def test_changed_file_is_the_only_reanalysis(self, tmp_path):
        pkg = write_package(tmp_path / "pkg", self.fixture_files())
        cache_dir = tmp_path / "cache"
        analyze_paths([pkg], ALL_RULES, cache_dir=cache_dir)
        target = pkg / "repro" / "core" / "cost.py"
        target.write_text(
            "from repro.errors import ReproError\n\nW = 3\n",
            encoding="utf-8",
        )
        warm = analyze_paths([pkg], ALL_RULES, cache_dir=cache_dir)
        assert warm.files_reanalyzed == [target]

    def test_graph_change_propagates_through_cached_records(self, tmp_path):
        # Editing one file to add an upward import must surface RL006 on
        # a warm run even though every *other* file comes from the cache:
        # the project pass is recomputed from cached import records.
        pkg = write_package(tmp_path / "pkg", self.fixture_files())
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([pkg], ALL_RULES, cache_dir=cache_dir)
        assert by_rule(cold.violations, "RL006") == []
        target = pkg / "repro" / "core" / "cost.py"
        target.write_text(
            "from repro.sim.runner import TICK\n\nW = 1\n",
            encoding="utf-8",
        )
        warm = analyze_paths([pkg], ALL_RULES, cache_dir=cache_dir)
        assert warm.files_reanalyzed == [target]
        found = by_rule(warm.violations, "RL006")
        assert len(found) == 1
        assert "`repro.sim.runner`" in found[0].message

    def test_unreadable_cache_is_ignored(self, tmp_path):
        pkg = write_package(tmp_path / "pkg", self.fixture_files())
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "cache.json").write_text("{not json", encoding="utf-8")
        report = analyze_paths([pkg], ALL_RULES, cache_dir=cache_dir)
        assert len(report.files_reanalyzed) == report.files_analyzed


# ------------------------------------------------------------- baseline


def make_violation(path: str, rule_id: str = "RL003", line: int = 3):
    return Violation(
        path=Path(path),
        line=line,
        col=0,
        rule_id=rule_id,
        message="float equality comparison",
    )


class TestBaseline:
    def test_round_trip_and_count_budget(self, tmp_path):
        root = tmp_path
        baseline_file = tmp_path / "baseline.json"
        known = [make_violation(str(root / "a.py"), line=3)]
        write_baseline(baseline_file, known, root)
        baseline = load_baseline(baseline_file)

        # The same fingerprint on a *different line* is still absorbed —
        # fingerprints are line-independent…
        moved = [make_violation(str(root / "a.py"), line=9)]
        kept, absorbed = filter_baselined(moved, baseline, root)
        assert kept == [] and absorbed == 1

        # …but a second instance exceeds the recorded count and fails.
        doubled = [
            make_violation(str(root / "a.py"), line=3),
            make_violation(str(root / "a.py"), line=9),
        ]
        kept, absorbed = filter_baselined(doubled, baseline, root)
        assert absorbed == 1 and len(kept) == 1

    def test_rejects_unversioned_file(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"entries": []}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_checked_in_baseline_is_empty_and_valid(self):
        baseline = load_baseline(REPO_ROOT / "reprolint_baseline.json")
        assert sum(baseline.values()) == 0


# ---------------------------------------------------------------- SARIF


class TestSarif:
    def sample(self, tmp_path):
        violations = [
            Violation(
                path=tmp_path / "repro" / "core" / "x.py",
                line=4,
                col=2,
                rule_id="RL003",
                message="float equality",
            ),
            Violation(
                path=tmp_path / "broken.py",
                line=1,
                col=0,
                rule_id="E901",
                message="syntax error: invalid syntax",
            ),
        ]
        return to_sarif(violations, ALL_RULES, tmp_path)

    def test_schema_envelope(self, tmp_path):
        doc = self.sample(tmp_path)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"

    def test_rule_catalog_covers_all_results(self, tmp_path):
        doc = self.sample(tmp_path)
        (run,) = doc["runs"]
        catalog = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert len(catalog) == len(set(catalog))
        for rule in ALL_RULES:
            assert rule.id in catalog
        for result in run["results"]:
            assert result["ruleId"] in catalog
            assert catalog[result["ruleIndex"]] == result["ruleId"]

    def test_locations_are_relative_posix_one_based(self, tmp_path):
        doc = self.sample(tmp_path)
        (run,) = doc["runs"]
        for result in run["results"]:
            loc = result["locations"][0]["physicalLocation"]
            uri = loc["artifactLocation"]["uri"]
            assert not uri.startswith("/") and "\\" not in uri
            region = loc["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
        uris = {
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in run["results"]
        }
        assert "repro/core/x.py" in uris

    def test_cli_writes_valid_json(self, tmp_path, capsys):
        pkg = write_package(
            tmp_path / "pkg",
            {"repro/core/hot.py": "def f(a, b):\n    return a == b + 0.1\n"},
        )
        out = tmp_path / "out.sarif"
        code = reprolint_main(
            [str(pkg), "--no-cache", "--sarif", str(out), "-q"]
        )
        assert code == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        assert len(doc["runs"][0]["results"]) >= 1


# ------------------------------------------------------------------ CLI


class TestCli:
    def test_engine_parse_error_exits_2(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def f(:\n", encoding="utf-8")
        code = reprolint_main([str(pkg), "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2
        assert "E901" in captured.out

    def test_summary_line_format(self, tmp_path, capsys):
        pkg = write_package(
            tmp_path / "pkg",
            {
                "repro/core/hot.py": """\
                    def f(a, b):
                        return a == b + 0.1

                    def g(a, b):
                        return a == b + 0.2  # reprolint: disable=RL003
                    """,
            },
        )
        code = reprolint_main([str(pkg), "--no-cache", "--select", "RL003"])
        captured = capsys.readouterr()
        assert code == 1
        files = 3  # hot.py plus the two generated __init__.py files
        assert f"1 violation in {files} files (1 suppressed)" in captured.out

    def test_clean_summary_mentions_clean(self, tmp_path, capsys):
        pkg = write_package(
            tmp_path / "pkg", {"repro/core/ok.py": "X = 1\n"}
        )
        code = reprolint_main([str(pkg), "--no-cache"])
        captured = capsys.readouterr()
        assert code == 0
        assert "clean" in captured.out
        assert "(0 suppressed)" in captured.out

    def test_explain_known_and_unknown(self, capsys):
        assert reprolint_main(["--explain", "RL006"]) == 0
        captured = capsys.readouterr()
        assert "RL006" in captured.out and "layer" in captured.out.lower()
        assert reprolint_main(["--explain", "RL042"]) == 2

    def test_update_baseline_requires_baseline(self, tmp_path, capsys):
        pkg = write_package(
            tmp_path / "pkg", {"repro/core/ok.py": "X = 1\n"}
        )
        assert reprolint_main([str(pkg), "--update-baseline"]) == 2

    def test_baseline_workflow_end_to_end(self, tmp_path, capsys):
        pkg = write_package(
            tmp_path / "pkg",
            {"repro/core/hot.py": "def f(a, b):\n    return a == b + 0.1\n"},
        )
        baseline = tmp_path / "baseline.json"
        # Record the debt…
        code = reprolint_main(
            [str(pkg), "--no-cache", "--baseline", str(baseline), "--update-baseline"]
        )
        assert code == 0 and baseline.exists()
        # …and the next run passes, reporting the absorbed count.
        code = reprolint_main(
            [str(pkg), "--no-cache", "--baseline", str(baseline)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "baselined" in captured.out

    def test_corrupt_baseline_exits_2(self, tmp_path, capsys):
        pkg = write_package(
            tmp_path / "pkg", {"repro/core/ok.py": "X = 1\n"}
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text("[]", encoding="utf-8")
        assert (
            reprolint_main([str(pkg), "--no-cache", "--baseline", str(baseline)])
            == 2
        )

    def test_cache_round_trip_via_cli(self, tmp_path, capsys):
        pkg = write_package(
            tmp_path / "pkg", {"repro/core/ok.py": "X = 1\n"}
        )
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            code = reprolint_main([str(pkg), "--cache-dir", str(cache_dir)])
            assert code == 0
        assert (cache_dir / "cache.json").exists()


# -------------------------------------------- suppression edge cases


def suppression_lint(source: str, select: str = "RL003"):
    registry = rules_by_id()
    rules = [registry[rule_id] for rule_id in select.split(",")]
    return lint_source(
        dedent(source), Path("src/repro/core/fixture.py"), rules
    )


class TestSuppressionEdgeCases:
    def test_disable_all_silences_every_rule_on_line(self):
        violations = suppression_lint(
            """\
            import time

            def f(a, b):
                return a == time.time()  # reprolint: disable=all
            """,
            select="RL001,RL003",
        )
        assert violations == []

    def test_disable_all_plus_specific_code_both_match(self):
        # Redundant but legal: line carries both `all` and a named code.
        # The violation is suppressed and neither directive is flagged
        # stale (each suppresses the other's staleness).
        violations = suppression_lint(
            """\
            def f(a, b):
                # reprolint: disable=all
                return a == b + 0.1  # reprolint: disable=RL003
            """,
            select="RL003,RL009",
        )
        assert violations == []

    def test_file_wide_and_line_directive_interaction(self):
        # disable-file silences the whole file; the line directive then
        # matches nothing — but RL009 staleness of the line directive is
        # itself silenced by the file-wide `all`.
        violations = suppression_lint(
            """\
            # reprolint: disable-file=all
            def f(a, b):
                return a == b + 0.1  # reprolint: disable=RL003
            """,
            select="RL003,RL009",
        )
        assert violations == []

    def test_malformed_rule_id_does_not_suppress(self):
        violations = suppression_lint(
            """\
            def f(a, b):
                return a == b + 0.1  # reprolint: disable=RL_OOPS
            """,
            select="RL003,RL009",
        )
        ids = sorted(v.rule_id for v in violations)
        assert "RL003" in ids  # not suppressed
        assert any(
            v.rule_id == "RL009" and "unknown rule id" in v.message
            for v in violations
        )

    def test_comma_list_mixing_known_and_unknown(self):
        violations = suppression_lint(
            """\
            def f(a, b):
                return a == b + 0.1  # reprolint: disable=RL003,RL999
            """,
            select="RL003,RL009",
        )
        # RL003 is suppressed; the unknown RL999 is still reported.
        assert [v.rule_id for v in violations] == ["RL009"]
        assert "RL999" in violations[0].message

    def test_continuation_line_directive_suppresses_statement(self):
        # The violation anchors to the statement's first line; a
        # directive on any physical line of the statement must match.
        violations = suppression_lint(
            """\
            def f(a, b, c):
                return (
                    a
                    == b + 0.1  # reprolint: disable=RL003
                )
            """,
            select="RL003",
        )
        assert violations == []

    def test_directive_between_functions_binds_to_next_statement(self):
        violations = suppression_lint(
            """\
            def f(a, b):
                return a == b + 0.1
            """,
            select="RL003",
        )
        assert len(violations) == 1

    def test_parse_suppressions_reports_directive_lines(self):
        source = dedent(
            """\
            # reprolint: disable-file=RL001
            x = 1  # reprolint: disable=RL003
            """
        )
        sup = parse_suppressions(source, ast.parse(source))
        assert len(sup.directives) == 2
        kinds = sorted(d.kind for d in sup.directives)
        assert kinds == ["disable", "disable-file"]


# --------------------------------------------------- repo-wide gates


class TestRepoGates:
    def test_project_rules_clean_on_real_tree(self):
        report = analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"],
            ALL_RULES,
        )
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.violations == [], f"reprolint regressions:\n{rendered}"
        assert report.errors == []

    def test_module_name_resolution_on_real_tree(self):
        path = REPO_ROOT / "src" / "repro" / "core" / "controller.py"
        assert module_name(path) == "repro.core.controller"
        assert module_name(REPO_ROOT / "src" / "repro" / "__init__.py") == "repro"

    def test_import_collection_sees_type_checking_edges(self):
        source = dedent(
            """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.fleet.scheduler import FleetResult
            """
        )
        records = collect_imports(
            ast.parse(source), "repro.sim.export", is_package=False
        )
        fleet = [r for r in records if r.target.startswith("repro.fleet")]
        assert len(fleet) == 1 and fleet[0].type_checking
