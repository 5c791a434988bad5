"""Benches for the §VI extensions and the sweep experiments.

- The lookup table on a repetitive (fast-paced) session: hit rate and the
  evaluation budget it saves vs always re-optimizing.
- Edge-offloaded BO: network bytes and milliseconds per activation (the
  paper claims "a few Bytes" per exchange).
- The w sensitivity sweep and the Pixel 7 / Galaxy S22 comparison.
"""

import numpy as np
import pytest
from conftest import BENCH_SEED, run_once

from repro.core.controller import HBOConfig, HBOController
from repro.core.lookup import LookupAwareController, LookupTable
from repro.edge.link import NetworkLink
from repro.device.power import PowerModel
from repro.experiments import sweep
from repro.experiments.report import format_table
from repro.rng import derive_seed
from repro.sim.scenarios import build_system

CONFIG = HBOConfig(n_initial=4, n_iterations=8)


def test_lookup_table_on_repetitive_session(benchmark):
    """A user revisiting the same few environments (the paper's fast-paced
    case): after the first visit each environment is a table hit."""

    def run():
        system = build_system("SC2", "CF1", seed=BENCH_SEED, noise_sigma=0.02)
        controller = LookupAwareController(
            HBOController(system, CONFIG, seed=BENCH_SEED),
            table=LookupTable(similarity_threshold=0.15),
        )
        # Two rooms the user bounces between: near the objects and far.
        rooms = [(0.0, 0.0, 0.0), (0.0, 0.0, -2.0)]
        evaluations = 0
        decisions = []
        for visit in range(6):
            system.scene.move_user(rooms[visit % 2])
            system.refresh_load()
            decision = controller.activate()
            decisions.append(decision.from_table)
            if decision.run_result is not None:
                evaluations += len(decision.run_result.iterations)
            else:
                evaluations += 1  # a hit costs one verification period
        return decisions, evaluations, controller.table.hit_rate

    decisions, evaluations, hit_rate = run_once(benchmark, run)
    print(
        f"\nLookup-table session: hits={decisions} "
        f"(total control periods spent: {evaluations}, hit rate {hit_rate:.2f})"
    )
    # First visit to each room misses; the four revisits hit.
    assert decisions[0] is False and decisions[1] is False
    assert all(decisions[2:])
    # Budget saved: 2 full activations + 4 single periods << 6 activations.
    assert evaluations < 3 * (CONFIG.total_evaluations + 1)


def test_offloaded_bo_overhead(benchmark):
    """§VI: BO on an edge server — payloads of a few dozen bytes and
    single-digit milliseconds per exchange over a Wi-Fi-class link."""

    def run():
        system = build_system("SC1", "CF1", seed=BENCH_SEED, noise_sigma=0.02)
        controller = HBOController(
            system,
            CONFIG,
            offload_link=NetworkLink(rtt_ms=8.0, jitter_ms=2.0),
            seed=BENCH_SEED,
        )
        result = controller.activate()
        return result, controller.last_offload_stats

    result, stats = run_once(benchmark, run)
    per_exchange_bytes = stats.total_bytes / stats.exchanges
    print(
        f"\nOffloaded BO: {stats.exchanges} exchanges, "
        f"{stats.total_bytes} B total ({per_exchange_bytes:.0f} B/exchange), "
        f"{stats.network_ms:.1f} ms network time for the whole activation"
    )
    assert per_exchange_bytes < 100  # "a few Bytes" of payload
    assert stats.network_ms / stats.exchanges < 20.0
    assert result.final_measurement is not None


def test_energy_model_orders_configurations(benchmark):
    """The energy extension exposes a trade-off the paper's cost ignores:
    HBO's CPU relocation buys latency at a *power* premium — AllN leaves
    the big cores idle, the HBO-like configuration spins them up. This is
    exactly the kind of finding an energy-aware cost (``energy_aware_cost``)
    would fold into the optimization."""

    def run():
        system = build_system("SC1", "CF1", seed=BENCH_SEED, noise_sigma=0.0)
        model = PowerModel()
        soc = system.device.soc
        rows = []
        from repro.device.resources import Resource

        tasks = list(system.taskset.task_ids)
        configs = {
            "AllN @ x=1.0": ({t: Resource.NNAPI for t in tasks}, 1.0),
            "HBO-like @ x=0.5": (
                {
                    t: (Resource.CPU if "metadata" in t or t == "mnist" else Resource.NNAPI)
                    for t in tasks
                },
                0.5,
            ),
            "HBO-like @ x=0.2": (
                {
                    t: (Resource.CPU if "metadata" in t or t == "mnist" else Resource.NNAPI)
                    for t in tasks
                },
                0.2,
            ),
        }
        for name, (alloc, ratio) in configs.items():
            system.apply(alloc, ratio)
            power = model.system_power_w(
                soc, system.device.placements(), system.device.load
            )
            rows.append([name, power])
        return rows

    rows = run_once(benchmark, run)
    print(
        "\n"
        + format_table(
            ["Configuration", "system power (W)"],
            rows,
            title="Energy extension — average draw per configuration",
        )
    )
    powers = {name: p for name, p in rows}
    # The CPU relocation costs power: AllN (idle CPU) draws less than the
    # HBO-like config, and deeper decimation never increases the draw.
    assert powers["AllN @ x=1.0"] < powers["HBO-like @ x=0.5"]
    assert powers["HBO-like @ x=0.2"] <= powers["HBO-like @ x=0.5"] + 1e-9
    for _name, power in rows:
        assert 2.0 < power < 12.0  # sane phone-scale wattage


def test_w_sweep(benchmark):
    """Weight sensitivity: larger w must not increase the achieved
    latency; smaller w keeps more triangles."""
    result = run_once(
        benchmark, sweep.run_w_sweep, weights=(0.5, 2.5, 8.0),
        seed=BENCH_SEED, config=CONFIG,
    )
    print("\n" + sweep.render_w_sweep(result))
    points = {p.w: p for p in result.points}
    # Heavier latency weight must not leave more latency on the table
    # (tolerances absorb single-run BO noise).
    assert points[8.0].epsilon <= points[0.5].epsilon + 0.15
    assert points[2.5].epsilon <= points[0.5].epsilon + 0.15


def test_device_comparison(benchmark):
    """Both Table I devices adapt the same way on SC1-CF1 (§V-A says the
    S22 results were 'similar')."""
    result = run_once(
        benchmark, sweep.run_device_comparison, scenario="SC1", taskset="CF1",
        seed=BENCH_SEED, config=CONFIG,
    )
    print("\n" + sweep.render_device_comparison(result))
    for run in result.runs:
        assert run.triangle_ratio < 0.9  # both decimate the heavy scene
        assert run.epsilon < 1.5  # both escape the contention cliff


def test_greedy_dynamic_vs_hbo(benchmark):
    """The extra GreedyDyn baseline: reactive relocation finds a similar
    allocation to HBO's but pays ~2-3x the probing budget and cannot
    touch quality — so HBO wins the reward at the paper's weight."""
    from repro.baselines import GreedyDynamicBaseline

    def run():
        greedy_system = build_system("SC1", "CF1", seed=BENCH_SEED, noise_sigma=0.02)
        greedy = GreedyDynamicBaseline(max_rounds=3, samples_per_probe=3)
        greedy_out = greedy.run(greedy_system)

        hbo_system = build_system("SC1", "CF1", seed=BENCH_SEED, noise_sigma=0.02)
        controller = HBOController(hbo_system, CONFIG, seed=BENCH_SEED)
        hbo = controller.activate()
        return greedy_out, greedy.probes, hbo

    greedy_out, probes, hbo = run_once(benchmark, run)
    hbo_measurement = hbo.final_measurement
    print(
        f"\nGreedyDyn: eps={greedy_out.epsilon:.3f} at x=1.0 using {probes} "
        f"probe periods\nHBO:       eps={hbo_measurement.epsilon:.3f} "
        f"Q={hbo_measurement.quality:.2f} at x={hbo.best.triangle_ratio:.2f} "
        f"using {len(hbo.iterations)} control periods"
    )
    w = 2.5
    assert hbo_measurement.reward(w) > greedy_out.measurement.reward(w)
    assert probes > len(hbo.iterations)  # measurement-driven search is pricier
