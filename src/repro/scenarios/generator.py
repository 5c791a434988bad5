"""Composable, pure-function scenario axes.

Every function here is a pure function of its arguments: randomness comes
from a private stream derived via :func:`repro.rng.derive_seed` from the
caller's seed plus the axis name (and, for per-session axes, the session
label), so the same ``(seed, parameters)`` always produce bit-identical
output no matter which other axes ran before. That is the whole replay
contract of the catalog (:mod:`repro.scenarios.catalog`): a compiled
scenario is a deterministic function of ``(spec, seed)``.

The axes:

- **Arrival processes** — :func:`diurnal_arrivals` (sinusoidal intensity,
  inverse-CDF sampled) and :func:`flash_crowd_arrivals` (a normal burst
  over a uniform background) produce the fleet's arrival schedule;
  :func:`default_fleet_specs` is the original hand-written
  staggered-cohort schedule, moved here so the ``legacy-fleet`` catalog
  entry replays the PR 2 fleet byte-for-byte.
- **Device mix** — :func:`device_mix` draws device models from a weighted
  registry mix (including the mid/low tiers added with this subsystem).
- **Workload mix / churn** — :func:`workload_mix` draws (scenario,
  taskset) pairs, optionally switching weight tables at a churn time.
- **Mobility** — :func:`mobility_link_schedule` (per-session wireless
  bandwidth breakpoints: the user walking relative to their cell) and
  :func:`mobility_events` (per-session ``DistanceChange`` scripts: the
  user walking relative to their virtual objects, the paper's §IV-E
  distance→culling→latency mechanism).
- **Thermal episodes** — :func:`thermal_flags` marks the sessions that
  run hot (the fleet builds a ThermalModel for them, see
  ``FleetConfig.thermal``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.controller import HBOConfig
from repro.device.profiles import GALAXY_S22, PIXEL7, device_names
from repro.errors import ExperimentError, ScenarioError
from repro.fleet.session import SessionSpec
from repro.rng import derive_seed, make_rng
from repro.sim.events import DistanceChange, SceneEvent

#: The paper's publication year — the seed every legacy CLI path uses.
DEFAULT_SEED = 2024

#: The (device, scenario, taskset) cohorts the original fleet mixed.
COHORTS: Tuple[Tuple[str, str, str], ...] = (
    (PIXEL7, "SC1", "CF1"),
    (GALAXY_S22, "SC1", "CF1"),
    (PIXEL7, "SC2", "CF2"),
    (GALAXY_S22, "SC2", "CF2"),
)


def default_fleet_specs(
    n_sessions: int,
    config: HBOConfig,
    seed: int = DEFAULT_SEED,
    follow_gap_s: float = 3.0,
) -> List[SessionSpec]:
    """A mixed-cohort fleet with staggered arrivals.

    One donor per cohort arrives at t = 0 and optimizes cold; the
    remaining sessions round-robin over the cohorts and arrive (staggered
    by ``follow_gap_s``) only after every donor has finished, so each
    finds a matching donation in the store. Sessions within a cohort share
    a placement seed (identical scenes → signature distance 0) but keep
    independent measurement-noise streams.

    Moved verbatim from ``repro.experiments.fleet`` (which still
    re-exports it): this is the hand-written schedule behind ``repro
    fleet`` at seed 2024, now also the ``legacy-fleet`` catalog entry.
    """
    if n_sessions < 1:
        raise ExperimentError(f"n_sessions must be >= 1, got {n_sessions}")
    cohorts = COHORTS[: min(len(COHORTS), n_sessions)]
    donors_done_s = float(config.total_evaluations + 2)
    specs: List[SessionSpec] = []
    for index in range(n_sessions):
        device, scenario, taskset = cohorts[index % len(cohorts)]
        is_donor = index < len(cohorts)
        follower_rank = index - len(cohorts)
        specs.append(
            SessionSpec(
                session_id=f"s{index:02d}-{''.join(device.split()[1:]).lower()}-{scenario}",
                device=device,
                scenario=scenario,
                taskset=taskset,
                arrival_s=(
                    0.0 if is_donor else donors_done_s + follow_gap_s * follower_rank
                ),
                placement_seed=derive_seed(seed, "fleet-placement", scenario, device),
                # Spread users across the topology's distance axis so the
                # `nearest` placement policy has real choices to make
                # (pure function of the index; unused outside topology
                # mode, where the field is simply ignored).
                position=10.0 * (index % 4),
            )
        )
    return specs


# ------------------------------------------------------------- arrivals


def diurnal_arrivals(
    n_sessions: int,
    seed: int,
    period_s: float = 240.0,
    peak_to_base: float = 4.0,
    start_s: float = 0.0,
) -> Tuple[float, ...]:
    """Arrival times following one sinusoidal traffic wave.

    The instantaneous arrival intensity is ``1 + (peak_to_base - 1) *
    (1 - cos(2πt / period_s)) / 2`` — a trough at t = 0 and t =
    ``period_s``, a peak at ``period_s / 2`` — and arrivals are sampled
    by pushing sorted uniform quantiles through the inverse cumulative
    intensity (a time-rescaled Poisson process with the count pinned to
    ``n_sessions``). Times are rounded to 1 ms and returned sorted.
    """
    if n_sessions < 1:
        raise ScenarioError(f"n_sessions must be >= 1, got {n_sessions}")
    if period_s <= 0:
        raise ScenarioError(f"period_s must be > 0, got {period_s}")
    if peak_to_base < 1.0:
        raise ScenarioError(
            f"peak_to_base must be >= 1 (peak at least the base rate), "
            f"got {peak_to_base}"
        )
    rng = make_rng(derive_seed(seed, "scenario-axis", "diurnal"))
    quantiles = np.sort(rng.uniform(0.0, 1.0, n_sessions))
    grid_s = np.linspace(0.0, period_s, 2049)
    intensity = 1.0 + (peak_to_base - 1.0) * 0.5 * (
        1.0 - np.cos(2.0 * np.pi * grid_s / period_s)
    )
    cumulative = np.cumsum(intensity)
    cumulative = (cumulative - cumulative[0]) / (cumulative[-1] - cumulative[0])
    times_s = np.interp(quantiles, cumulative, grid_s) + start_s
    return tuple(round(float(t), 3) for t in times_s)


def flash_crowd_arrivals(
    n_sessions: int,
    seed: int,
    window_s: float = 90.0,
    burst_time_s: float = 30.0,
    burst_sigma_s: float = 4.0,
    burst_fraction: float = 0.7,
) -> Tuple[float, ...]:
    """Arrival times for a flash crowd: a tight normal burst around
    ``burst_time_s`` over a uniform background across ``window_s``.

    ``burst_fraction`` of the sessions belong to the burst (a venue
    door opening, a push notification landing); the rest trickle in
    uniformly. Negative burst draws clamp to 0. Rounded to 1 ms, sorted.
    """
    if n_sessions < 1:
        raise ScenarioError(f"n_sessions must be >= 1, got {n_sessions}")
    if window_s <= 0:
        raise ScenarioError(f"window_s must be > 0, got {window_s}")
    if burst_sigma_s <= 0:
        raise ScenarioError(f"burst_sigma_s must be > 0, got {burst_sigma_s}")
    if not 0.0 <= burst_fraction <= 1.0:
        raise ScenarioError(
            f"burst_fraction must be in [0, 1], got {burst_fraction}"
        )
    if not 0.0 <= burst_time_s <= window_s:
        raise ScenarioError(
            f"burst_time_s must be inside [0, window_s], got {burst_time_s}"
        )
    rng = make_rng(derive_seed(seed, "scenario-axis", "flash-crowd"))
    n_burst = int(round(n_sessions * burst_fraction))
    background = rng.uniform(0.0, window_s, n_sessions - n_burst)
    burst = rng.normal(burst_time_s, burst_sigma_s, n_burst)
    times_s = np.sort(np.concatenate([background, np.maximum(burst, 0.0)]))
    return tuple(round(float(t), 3) for t in times_s)


# ----------------------------------------------------------- device mix


def device_mix(
    n_sessions: int,
    seed: int,
    weights: Sequence[Tuple[str, float]],
) -> Tuple[str, ...]:
    """Draw one device model per session from a weighted registry mix.

    ``weights`` is an ordered sequence of ``(device_name, weight)`` pairs
    (order matters for determinism — a dict would also work in CPython
    but the catalog stores tuples to make the contract explicit). Every
    device must exist in :func:`repro.device.profiles.device_names` and
    weights must be positive.
    """
    if n_sessions < 1:
        raise ScenarioError(f"n_sessions must be >= 1, got {n_sessions}")
    if not weights:
        raise ScenarioError("device_mix needs at least one (device, weight)")
    known = set(device_names())
    names = [name for name, _weight in weights]
    for name, weight in weights:
        if name not in known:
            raise ScenarioError(
                f"unknown device {name!r} in mix; registry has {sorted(known)}"
            )
        if weight <= 0:
            raise ScenarioError(f"device weight for {name!r} must be > 0")
    if len(set(names)) != len(names):
        raise ScenarioError(f"duplicate devices in mix: {names}")
    rng = make_rng(derive_seed(seed, "scenario-axis", "device-mix"))
    raw = np.array([weight for _name, weight in weights], dtype=np.float64)
    chosen = rng.choice(len(names), size=n_sessions, p=raw / raw.sum())
    return tuple(names[int(i)] for i in chosen)


# ------------------------------------------------------- workload churn


def workload_mix(
    arrivals_s: Sequence[float],
    seed: int,
    weights: Sequence[Tuple[str, str, float]],
    churn_time_s: float = -1.0,
    churn_weights: Sequence[Tuple[str, str, float]] = (),
) -> Tuple[Tuple[str, str], ...]:
    """Draw one (scenario, taskset) pair per session, with optional churn.

    Sessions arriving at or after ``churn_time_s`` draw from
    ``churn_weights`` instead of ``weights`` — the app's model mix
    shifting mid-day (a new filter going viral, a heavier model rolling
    out). A negative ``churn_time_s`` (the default) disables churn. One
    uniform draw is consumed per session regardless of which table it
    lands in, so adding churn does not shift any other axis's stream.
    """

    def _validate(table: Sequence[Tuple[str, str, float]], label: str) -> None:
        if not table:
            raise ScenarioError(f"{label} needs at least one entry")
        for scenario, taskset, weight in table:
            if scenario not in ("SC1", "SC2"):
                raise ScenarioError(
                    f"{label}: unknown scenario {scenario!r} (SC1/SC2)"
                )
            if taskset not in ("CF1", "CF2"):
                raise ScenarioError(
                    f"{label}: unknown taskset {taskset!r} (CF1/CF2)"
                )
            if weight <= 0:
                raise ScenarioError(
                    f"{label}: weight for ({scenario}, {taskset}) must be > 0"
                )

    _validate(weights, "workload weights")
    if churn_time_s >= 0:
        _validate(churn_weights, "churn weights")
    rng = make_rng(derive_seed(seed, "scenario-axis", "workload-mix"))

    def _pick(
        table: Sequence[Tuple[str, str, float]], quantile: float
    ) -> Tuple[str, str]:
        total = sum(weight for _s, _t, weight in table)
        acc = 0.0
        for scenario, taskset, weight in table:
            acc += weight / total
            if quantile <= acc:
                return scenario, taskset
        return table[-1][0], table[-1][1]

    picks: List[Tuple[str, str]] = []
    for arrival_s in arrivals_s:
        quantile = float(rng.uniform(0.0, 1.0))
        table = (
            churn_weights
            if 0 <= churn_time_s <= arrival_s
            else weights
        )
        picks.append(_pick(table, quantile))
    return tuple(picks)


# -------------------------------------------------------------- mobility


def mobility_link_schedule(
    seed: int,
    label: str,
    start_s: float,
    duration_s: float,
    n_breakpoints: int = 3,
    scale_floor: float = 0.3,
    scale_ceil: float = 1.4,
) -> Tuple[Tuple[float, float], ...]:
    """Per-session wireless bandwidth breakpoints for a moving user.

    Returns ``(time_s, scale)`` pairs in the shape
    :func:`repro.sim.scenarios.apply_network_drift` consumes: nominal at
    t = 0, then ``n_breakpoints`` scale changes uniform over the
    session's active window — the user walking toward/away from their
    serving cell, through doorways, behind obstructions. Scales stay
    inside ``[scale_floor, scale_ceil]``; keep that inside the link's
    configured ``[min_scale, max_scale]`` band or the fleet will reject
    the schedule at apply time.
    """
    if duration_s <= 0:
        raise ScenarioError(f"duration_s must be > 0, got {duration_s}")
    if n_breakpoints < 1:
        raise ScenarioError(f"n_breakpoints must be >= 1, got {n_breakpoints}")
    if not 0 < scale_floor <= scale_ceil:
        raise ScenarioError(
            f"need 0 < scale_floor <= scale_ceil, got "
            f"[{scale_floor}, {scale_ceil}]"
        )
    rng = make_rng(derive_seed(seed, "scenario-axis", "mobility-link", label))
    times_s = np.sort(rng.uniform(start_s, start_s + duration_s, n_breakpoints))
    scales = rng.uniform(scale_floor, scale_ceil, n_breakpoints)
    schedule: List[Tuple[float, float]] = [(0.0, 1.0)]
    for time_s, scale in zip(times_s, scales):
        schedule.append((round(float(time_s), 3), round(float(scale), 3)))
    return tuple(schedule)


def mobility_events(
    seed: int,
    label: str,
    start_s: float,
    duration_s: float,
    n_moves: int = 2,
    max_radius_m: float = 2.5,
) -> Tuple[SceneEvent, ...]:
    """A per-session ``DistanceChange`` script for a moving user.

    ``n_moves`` user repositions uniform over the session's active
    window, each to a point within ``max_radius_m`` of the scene origin
    (where :func:`repro.sim.scenarios.place_catalog` scatters the
    objects). Stepping away grows every object's distance, the §IV-E
    culling threshold kicks in, rendered triangles drop, and latency
    falls — the mechanism the paper's Fig. 8 tail demonstrates — then
    stepping back reverses it. Returns a time-sorted script.
    """
    if duration_s <= 0:
        raise ScenarioError(f"duration_s must be > 0, got {duration_s}")
    if n_moves < 1:
        raise ScenarioError(f"n_moves must be >= 1, got {n_moves}")
    if max_radius_m <= 0:
        raise ScenarioError(f"max_radius_m must be > 0, got {max_radius_m}")
    rng = make_rng(derive_seed(seed, "scenario-axis", "mobility-user", label))
    times_s = np.sort(rng.uniform(start_s, start_s + duration_s, n_moves))
    events: List[SceneEvent] = []
    for time_s in times_s:
        direction = rng.normal(0.0, 1.0, 3)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:  # a degenerate all-zeros draw; keep a unit vector
            direction = np.array([1.0, 0.0, 0.0])
            norm = 1.0
        radius_m = float(rng.uniform(0.3, max_radius_m))
        position = direction / norm * radius_m
        events.append(
            DistanceChange(
                time_s=round(float(time_s), 3),
                user_position=(
                    round(float(position[0]), 3),
                    round(float(position[1]), 3),
                    round(float(position[2]), 3),
                ),
            )
        )
    return tuple(events)


def mobility_flags(
    n_sessions: int, seed: int, fraction: float
) -> Tuple[bool, ...]:
    """Mark which sessions belong to the mobile cohort (one uniform draw
    per session against ``fraction``, on its own stream so toggling
    mobility never shifts the thermal or mix axes)."""
    if n_sessions < 1:
        raise ScenarioError(f"n_sessions must be >= 1, got {n_sessions}")
    if not 0.0 <= fraction <= 1.0:
        raise ScenarioError(f"fraction must be in [0, 1], got {fraction}")
    rng = make_rng(derive_seed(seed, "scenario-axis", "mobility-select"))
    draws = rng.uniform(0.0, 1.0, n_sessions)
    return tuple(bool(draw < fraction) for draw in draws)


# --------------------------------------------------------------- thermal


def thermal_flags(
    n_sessions: int, seed: int, hot_fraction: float
) -> Tuple[bool, ...]:
    """Mark which sessions run thermally throttled.

    One uniform draw per session compared against ``hot_fraction`` — a
    fraction of the fleet sits in direct sunlight or on a charger. The
    fleet only builds thermal models for flagged sessions when the
    compiled config also carries ``FleetConfig.thermal`` (the gate).
    """
    if n_sessions < 1:
        raise ScenarioError(f"n_sessions must be >= 1, got {n_sessions}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ScenarioError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    rng = make_rng(derive_seed(seed, "scenario-axis", "thermal"))
    draws = rng.uniform(0.0, 1.0, n_sessions)
    return tuple(bool(draw < hot_fraction) for draw in draws)


# -------------------------------------------------------------- position


def user_positions(
    n_sessions: int, seed: int, span_m: float = 30.0
) -> Tuple[float, ...]:
    """Each user's coordinate on the topology's 1-D distance axis.

    Uniform over ``[0, span_m)`` — :func:`repro.edge.topology.
    default_topology` spaces nodes 10 distance units apart, so the
    default span covers a 4-node metro area. Only the ``nearest``
    placement policy reads it; harmless elsewhere.
    """
    if n_sessions < 1:
        raise ScenarioError(f"n_sessions must be >= 1, got {n_sessions}")
    if span_m <= 0:
        raise ScenarioError(f"span_m must be > 0, got {span_m}")
    rng = make_rng(derive_seed(seed, "scenario-axis", "position"))
    draws = rng.uniform(0.0, span_m, n_sessions)
    return tuple(round(float(d), 3) for d in draws)
