"""Tests for JSON export, the CLI, and the sweep experiments."""

import dataclasses
import json

import pytest

from repro.core.controller import HBOConfig, HBOController
from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments import sweep
from repro.sim.export import measurement_to_dict, run_result_to_dict, save_json
from repro.sim.scenarios import build_system

FAST = HBOConfig(n_initial=3, n_iterations=3)


@pytest.fixture(scope="module")
def run_result():
    system = build_system("SC2", "CF2", seed=3, noise_sigma=0.02)
    return HBOController(system, FAST, seed=3).activate()


class TestExport:
    def test_run_result_roundtrips_through_json(self, run_result, tmp_path):
        payload = run_result_to_dict(run_result)
        path = tmp_path / "run.json"
        save_json(payload, path)
        loaded = json.loads(path.read_text())
        assert loaded["best_index"] == run_result.best_index
        assert len(loaded["iterations"]) == len(run_result.iterations)
        best = loaded["iterations"][loaded["best_index"]]
        assert best["cost"] == pytest.approx(run_result.best.cost)

    def test_measurement_dict_fields(self, run_result):
        d = measurement_to_dict(run_result.best.measurement)
        assert set(d) == {
            "latencies_ms", "epsilon", "quality", "triangle_ratio", "allocation",
        }
        assert all(isinstance(v, str) for v in d["allocation"].values())

    def test_empty_run_rejected(self):
        from repro.core.controller import HBORunResult

        with pytest.raises(ExperimentError):
            run_result_to_dict(HBORunResult())


class TestCLI:
    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SC1" in out and "CF2" in out and "fig5" in out

    def test_profiles_command(self, capsys):
        assert main(["profiles", "--device", "Samsung Galaxy S22"]) == 0
        out = capsys.readouterr().out
        assert "deeplabv3" in out and "nnapi=27.0ms" in out
        assert "NA" in out  # efficientdet-lite has no NNAPI cell

    def test_tune_command_with_export(self, capsys, tmp_path):
        path = tmp_path / "tune.json"
        code = main(
            [
                "tune", "--scenario", "SC2", "--taskset", "CF2",
                "--iterations", "3", "--initial", "3", "--seed", "4",
                "--export", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "triangle ratio" in out
        assert path.exists()
        assert "iterations" in json.loads(path.read_text())

    def test_experiment_command_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "max relative error" in out


class TestSweeps:
    def test_w_sweep_moves_operating_point(self):
        result = sweep.run_w_sweep(
            weights=(0.5, 8.0), seed=3, config=HBOConfig(n_initial=4, n_iterations=8)
        )
        low_w, high_w = result.points
        # Heavier latency weight → more willingness to decimate/relocate:
        # the latency achieved at w=8 must not exceed the one at w=0.5 by
        # much, and quality ordering should follow the weight.
        assert high_w.epsilon <= low_w.epsilon + 0.15
        text = sweep.render_w_sweep(result)
        assert "Weight sweep" in text

    def test_w_sweep_keeps_every_other_field(self, monkeypatch):
        seen = []

        class Recording(HBOController):
            def __init__(self, system, config, seed):
                seen.append(config)
                super().__init__(system, config, seed=seed)

        monkeypatch.setattr(sweep, "HBOController", Recording)
        base = HBOConfig(
            n_initial=1, n_iterations=0, r_min=0.2, kernel_length_scale=0.5,
            noise=1e-2, w_power=0.3, gp_tier="sparse", gp_sparse_threshold=8,
        )
        sweep.run_w_sweep(weights=(0.5, 8.0), seed=3, config=base)
        assert seen == [dataclasses.replace(base, w=0.5), dataclasses.replace(base, w=8.0)]

    def test_device_comparison_covers_both_devices(self):
        result = sweep.run_device_comparison(
            scenario="SC2", taskset="CF2", seed=3,
            config=HBOConfig(n_initial=3, n_iterations=4),
        )
        devices = [run.device for run in result.runs]
        assert devices == ["Google Pixel 7", "Samsung Galaxy S22"]
        for run in result.runs:
            assert 0.0 < run.quality <= 1.0
            assert run.epsilon >= 0.0 or run.epsilon < 10
        assert "Device comparison" in sweep.render_device_comparison(result)


class TestCLIExperiments:
    """Smoke the remaining experiment subcommands at tiny budgets."""

    @pytest.mark.parametrize(
        "name,marker",
        [
            ("fig2", "Fig. 2 run"),
            ("fig4", "Table III"),
            ("fig9", "user study"),
            ("wsweep", "Weight sweep"),
        ],
    )
    def test_experiment_subcommands(self, capsys, name, marker):
        code = main(
            ["experiment", name, "--iterations", "2", "--initial", "2",
             "--seed", "5"]
        )
        assert code == 0
        assert marker in capsys.readouterr().out
