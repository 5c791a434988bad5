"""Fig. 9: the user study — perceived quality of HBO vs SML.

The paper's protocol (§V-E): a mixed heavy/light object scene with the
CF1 taskset; participants first see all objects at maximum quality as the
reference, then rate HBO and SML configurations 1–5 at a close and a far
viewing distance. HBO keeps a ~0.52 triangle ratio where SML must drop to
~0.2 for comparable AI latency, so HBO's ratings stay near the ceiling
(4.9 / 5.0) while SML's fall to 3.0 / 3.6 — up to 38.7% better perceived
quality.

We reproduce the protocol with the simulated rater panel: run HBO, run
SML to match its latency, evaluate scene quality at both distances, and
collect panel ratings per condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ar.objects import catalog_sc1, catalog_sc2, expand_instances
from repro.ar.scene import Scene
from repro.baselines import StaticMatchLatencyBaseline
from repro.core.controller import HBOConfig, HBOController
from repro.core.system import MARSystem
from repro.device.executor import DeviceSimulator
from repro.device.profiles import PIXEL7
from repro.device.soc import pixel7_soc
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.models.tasks import taskset_cf1
from repro.rng import derive_seed, make_rng
from repro.userstudy import RaterPanel, StudyResult

CLOSE_USER = (0.0, 0.0, 0.2)
FAR_USER = (0.0, 0.0, -1.8)


@dataclass(frozen=True)
class Fig9Result:
    scores: Dict[str, StudyResult]  # keyed "HBO/close" etc.
    hbo_ratio: float
    sml_ratio: float

    def mean(self, key: str) -> float:
        return self.scores[key].mean_score

    def improvement(self) -> float:
        """Best-case HBO-over-SML rating improvement (the 38.7% headline)."""
        gains = [
            self.mean(f"HBO/{d}") / self.mean(f"SML/{d}") - 1.0
            for d in ("close", "far")
        ]
        return max(gains)


def _mixed_scene(seed: int) -> Scene:
    """A mix of heavy and lightweight objects (the §V-E scenario)."""
    rng = make_rng(seed)
    scene = Scene(user_position=CLOSE_USER)
    heavy = [(iid, obj) for iid, obj in expand_instances(catalog_sc1())][:4]
    light = [(iid, obj) for iid, obj in expand_instances(catalog_sc2())][:4]
    for iid, obj in heavy + light:
        scene.add(iid, obj, position=rng.uniform(-1.0, 1.0, 3) + [0, 0, 1.4])
    return scene


def _quality_at(system: MARSystem, user_position) -> float:
    original = system.scene.user_position
    system.scene.move_user(user_position)
    quality = system.scene.average_quality()
    system.scene.move_user(original)
    return quality


def run_fig9(seed: int = DEFAULT_SEED, config: HBOConfig = None) -> Fig9Result:  # type: ignore[assignment]
    cfg = config if config is not None else HBOConfig()

    def fresh_system(tag: str) -> MARSystem:
        return MARSystem(
            taskset=taskset_cf1(PIXEL7),
            device=DeviceSimulator(
                pixel7_soc(), seed=derive_seed(seed, "fig9", tag)
            ),
            scene=_mixed_scene(derive_seed(seed, "fig9-scene")),
        )

    hbo_system = fresh_system("hbo")
    controller = HBOController(hbo_system, cfg, seed=derive_seed(seed, "fig9-hbo"))
    hbo_result = controller.activate()
    hbo_ratio = hbo_result.best.triangle_ratio
    hbo_eps = hbo_result.best.measurement.epsilon

    sml_system = fresh_system("sml")
    sml = StaticMatchLatencyBaseline(target_epsilon=hbo_eps)
    sml_outcome = sml.run(sml_system)

    panel = RaterPanel(n_raters=7, seed=derive_seed(seed, "fig9-panel"))
    scores: Dict[str, StudyResult] = {}
    for label, system in (("HBO", hbo_system), ("SML", sml_system)):
        for distance_label, user in (("close", CLOSE_USER), ("far", FAR_USER)):
            quality = _quality_at(system, user)
            scores[f"{label}/{distance_label}"] = panel.rate(
                f"{label}/{distance_label}", quality
            )
    return Fig9Result(
        scores=scores, hbo_ratio=hbo_ratio, sml_ratio=sml_outcome.triangle_ratio
    )


def render(result: Fig9Result) -> str:
    rows = []
    for key in ("HBO/close", "HBO/far", "SML/close", "SML/far"):
        study = result.scores[key]
        rows.append([key, study.mean_score, " ".join(map(str, study.ratings))])
    table = format_table(
        ["Condition", "mean score (1-5)", "individual ratings"],
        rows,
        title="Fig. 9a — user study scores (7 simulated raters)",
    )
    footer = (
        f"triangle ratios: HBO={result.hbo_ratio:.2f}, SML={result.sml_ratio:.2f} "
        f"(paper: 0.52 vs 0.2)\n"
        f"best-case HBO rating improvement over SML: "
        f"{result.improvement() * 100:.1f}% (paper: up to 38.7%)"
    )
    return table + "\n\n" + footer


if __name__ == "__main__":
    print(render(run_fig9()))
