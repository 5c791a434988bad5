"""JSON export of runs and session traces.

Real deployments archive tuning sessions for offline analysis; these
helpers serialize the library's result objects into plain JSON-compatible
dictionaries. Everything is standard-library ``json`` — no schema
dependencies.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.controller import HBORunResult
from repro.core.system import Measurement
from repro.errors import ExperimentError

PathLike = Union[str, Path]


def measurement_to_dict(measurement: Measurement) -> Dict[str, Any]:
    """Serialize one control-period measurement."""
    return {
        "latencies_ms": dict(measurement.latencies_ms),
        "epsilon": measurement.epsilon,
        "quality": measurement.quality,
        "triangle_ratio": measurement.triangle_ratio,
        "allocation": {t: str(r) for t, r in measurement.allocation.items()},
    }


def run_result_to_dict(result: HBORunResult) -> Dict[str, Any]:
    """Serialize a full activation: every iteration plus the selection."""
    if not result.iterations:
        raise ExperimentError("cannot export an empty run result")
    return {
        "best_index": result.best_index,
        "iterations": [
            {
                "z": [float(v) for v in iteration.z],
                "proportions": [float(v) for v in iteration.proportions],
                "triangle_ratio": iteration.triangle_ratio,
                "allocation": {
                    t: str(r) for t, r in iteration.allocation.items()
                },
                "object_ratios": {
                    k: float(v) for k, v in iteration.object_ratios.items()
                },
                "cost": iteration.cost,
                "measurement": measurement_to_dict(iteration.measurement),
            }
            for iteration in result.iterations
        ],
        "final_measurement": (
            measurement_to_dict(result.final_measurement)
            if result.final_measurement is not None
            else None
        ),
    }


def save_json(payload: Dict[str, Any], path: PathLike) -> None:
    """Write an exported dictionary to ``path`` (pretty-printed)."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
