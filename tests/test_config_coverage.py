"""Every ``HBOConfig`` field changes what the fleet does.

One builder (``repro.core.controller.build_iteration``) turns an
``HBOConfig`` into both loops' optimizer and iteration. The table below
gives each field a non-default value and, where the field is inert on
its own, one companion field; the 8-session fleet must produce
different per-session costs with the value than with the companion
alone. A field added without a row fails here.
"""

import dataclasses
import functools

import pytest

from repro.core.controller import HBOConfig
from repro.experiments.fleet import run_fleet_experiment

BASE = HBOConfig(n_initial=2, n_iterations=3)

#: field → (non-default value, companion fields set on both sides).
ROWS = {
    "w": (1.0, {}),
    "n_initial": (3, {}),
    "n_iterations": (4, {}),
    "r_min": (0.2, {}),
    "kernel_length_scale": (0.5, {}),
    "noise": (1e-2, {}),
    "latency_only": (True, {}),
    "w_power": (1.0, {}),
    # The sparse tier only switches on past its threshold.
    "gp_tier": ("sparse", {"gp_sparse_threshold": 4}),
    "gp_sparse_threshold": (4, {"gp_tier": "sparse"}),
}


@functools.lru_cache(maxsize=None)
def _fleet_costs(config):
    result = run_fleet_experiment(seed=2024, config=config, n_sessions=8).result
    return tuple((r.session_id, tuple(r.costs)) for r in result.reports)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(HBOConfig)])
def test_fleet_honours_field(name):
    assert name in ROWS, f"HBOConfig.{name} has no row in ROWS"
    value, companion = ROWS[name]
    assert len(companion) <= 1
    control = dataclasses.replace(BASE, **companion)
    assert getattr(control, name) != value
    assert _fleet_costs(dataclasses.replace(control, **{name: value})) != _fleet_costs(
        control
    )
