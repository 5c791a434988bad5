"""JSON export of runs and session traces.

Real deployments archive tuning sessions for offline analysis; these
helpers serialize the library's result objects into plain JSON-compatible
dictionaries (and back-of-envelope loaders for the structures that round
trip). Everything is standard-library ``json`` — no schema dependencies.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.controller import HBORunResult
from repro.core.system import Measurement
from repro.device.resources import Resource, resource_from_name
from repro.errors import ExperimentError
from repro.sim.trace import ActivationRecord, RewardSample, SessionTrace

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


def trace_to_dict(trace: SessionTrace) -> Dict[str, Any]:
    """Serialize a monitored-session trace (Fig. 8-style data)."""
    return {
        "samples": [
            {
                "time_s": s.time_s,
                "reward": s.reward,
                "n_objects": s.n_objects,
                "during_activation": s.during_activation,
                "event": s.event,
            }
            for s in trace.samples
        ],
        "activations": [
            {
                "start_time_s": a.start_time_s,
                "end_time_s": a.end_time_s,
                "trigger": a.trigger,
                "best_cost": a.best_cost,
                "best_triangle_ratio": a.best_triangle_ratio,
                "reward_before": a.reward_before,
                "reward_after": a.reward_after,
                "n_iterations": a.n_iterations,
            }
            for a in trace.activations
        ],
    }


def trace_from_dict(data: Dict[str, Any]) -> SessionTrace:
    """Rebuild a :class:`SessionTrace` from its exported form."""
    trace = SessionTrace()
    for s in data.get("samples", []):
        trace.add_sample(
            RewardSample(
                time_s=float(s["time_s"]),
                reward=float(s["reward"]),
                n_objects=int(s["n_objects"]),
                during_activation=bool(s.get("during_activation", False)),
                event=s.get("event"),
            )
        )
    for a in data.get("activations", []):
        trace.add_activation(
            ActivationRecord(
                start_time_s=float(a["start_time_s"]),
                end_time_s=float(a["end_time_s"]),
                trigger=str(a["trigger"]),
                best_cost=float(a["best_cost"]),
                best_triangle_ratio=float(a["best_triangle_ratio"]),
                reward_before=float(a["reward_before"]),
                reward_after=float(a["reward_after"]),
                n_iterations=int(a["n_iterations"]),
            )
        )
    return trace


def allocation_from_dict(data: Dict[str, str]) -> Dict[str, Resource]:
    """Rebuild a task → resource map from its exported form."""
    return {task: resource_from_name(name) for task, name in data.items()}


def save_json(payload: Dict[str, Any], path: PathLike) -> None:
    """Write an exported dictionary to ``path`` (pretty-printed)."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read an exported dictionary back."""
    text = Path(path).read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ExperimentError(f"{path}: expected a JSON object at top level")
    return data
