"""Measure the SoA fleet core: columnar vs object-per-session stepping →
BENCH_pr9.json.

Usage: PYTHONPATH=src python tools/bench_pr9.py <output-json>

Three claims from the structure-of-arrays refactor, each gated:

1. **Batched throughput at N=1024** — one tick's pricing pass over a
   live 1024-session fleet, done the way the tick does it (ONE
   ``batched_steady`` call: a multi-row ``EvalPlan`` built from every
   session's live device + one batched solve) versus the
   object-per-session way (one ``batched_steady`` call per session, so a
   1-row plan + solve each, the pre-refactor granularity). Both sides
   include plan assembly. The batched pass must clear ≥10× sessions/s
   or the script exits non-zero.
2. **Interactive tick rates at 10k+ sessions** — the same batched pass
   over a 10240-session fleet must finish well inside one 1 s control
   period (gate: <1000 ms), and the script runs the 10240-session fleet
   END TO END to prove the scale point is real, not extrapolated.
3. **Determinism unchanged** — the legacy 16-session seed-2024
   ``repro fleet`` output must hash to the pinned pre-refactor sha, and
   a ``--shards 4`` run of the same fleet must be byte-identical to it.

Timings are host-dependent and re-measured by every ``make bench``; the
determinism checks are exact on any host.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from typing import Any, Dict, List

from repro.core.controller import HBOConfig
from repro.device.profiles import GALAXY_S22, PIXEL7
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    SessionSpec,
    SharedConfigStore,
)
from repro.fleet.scheduler import batched_steady

SMALL_N = 1024
BIG_N = 10240
REPEATS = 3
MIN_SPEEDUP = 10.0
MAX_TICK_MS = 1000.0  # one 1 s control period = "interactive"
#: sha256 of `repro fleet --sessions 16 --seed 2024` stdout, pinned when
#: the fleet experiment landed — the SoA core must not move it.
LEGACY_SHA = "6aeef4b7c645f4e14c63f843ff28ad50b959b2e3cc6c6588ab19b5395b320631"
BENCH_CONFIG = HBOConfig(n_initial=2, n_iterations=3)


def _specs(n: int) -> List[SessionSpec]:
    devices = (PIXEL7, GALAXY_S22)
    return [
        SessionSpec(
            session_id=f"s{i:05d}",
            device=devices[i % 2],
            scenario="SC1" if i % 2 == 0 else "SC2",
            taskset="CF1" if i % 2 == 0 else "CF2",
            arrival_s=0.0,
            placement_seed=11 + (i % 2),
        )
        for i in range(n)
    ]


def _live_scheduler(n: int) -> FleetScheduler:
    """A fleet with every session admitted and one tick stepped, so each
    session's device carries a real placement and scene load.

    At one shard the sessions live in the in-process worker."""
    scheduler = FleetScheduler(
        _specs(n),
        seed=2024,
        config=FleetConfig(hbo=BENCH_CONFIG),
        store=SharedConfigStore(),
    )
    scheduler.step(0)
    return scheduler


def _time_pricing_passes(scheduler: FleetScheduler) -> Dict[str, float]:
    """Time one tick's steady-state pricing, both ways, same rows."""
    worker = scheduler._worker
    rows = [int(i) for i in worker.table.active_indices()]
    columnar = _time_batched(scheduler, rows)
    start = time.perf_counter()
    for row in rows:
        batched_steady(worker.sessions, [row])
    object_per_session = time.perf_counter() - start
    return {
        "n_sessions": len(rows),
        "columnar_ms": round(columnar * 1e3, 3),
        "object_per_session_ms": round(object_per_session * 1e3, 3),
        "columnar_sessions_per_s": round(len(rows) / columnar, 1),
        "object_sessions_per_s": round(len(rows) / object_per_session, 1),
        "speedup": round(object_per_session / columnar, 1),
    }


def _time_batched(scheduler: FleetScheduler, rows: List[int]) -> float:
    """Best-of-``REPEATS`` seconds for one tick's batched pricing pass."""
    worker = scheduler._worker
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        batched_steady(worker.sessions, rows)
        best = min(best, time.perf_counter() - start)
    return best


def _fleet_cli(*extra: str) -> bytes:
    """The legacy 16-session seed-2024 fleet, exactly as the CLI runs it."""
    return subprocess.run(
        [sys.executable, "-m", "repro", "fleet", "--sessions", "16",
         "--seed", "2024", *extra],
        check=True,
        capture_output=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    ).stdout


def run() -> Dict[str, Any]:
    small = _time_pricing_passes(_live_scheduler(SMALL_N))

    big_scheduler = _live_scheduler(BIG_N)
    rows = [int(i) for i in big_scheduler._worker.table.active_indices()]
    tick = _time_batched(big_scheduler, rows)
    start = time.perf_counter()
    result = big_scheduler.run()  # finish the whole 10240-session fleet
    end_to_end_s = time.perf_counter() - start
    big = {
        "n_sessions": len(rows),
        "columnar_tick_ms": round(tick * 1e3, 3),
        "columnar_sessions_per_s": round(len(rows) / tick, 1),
        "end_to_end_remaining_s": round(end_to_end_s, 2),
        "end_to_end_ticks": result.ticks,
        "end_to_end_session_steps": result.aggregates.n_evaluations,
        "end_to_end_steps_per_s": round(
            result.aggregates.n_evaluations / end_to_end_s, 1
        ),
    }

    legacy = _fleet_cli()
    sharded = _fleet_cli("--shards", "4")
    determinism = {
        "legacy_sha_pinned": LEGACY_SHA,
        "legacy_sha_measured": hashlib.sha256(legacy).hexdigest(),
        "legacy_sha_match": hashlib.sha256(legacy).hexdigest() == LEGACY_SHA,
        "shards4_byte_identical": sharded == legacy,
    }

    return {
        "source": "tools/bench_pr9.py (make bench)",
        "setup": {
            "hbo": {"n_initial": 2, "n_iterations": 3},
            "small_n": SMALL_N,
            "big_n": BIG_N,
            "repeats": REPEATS,
        },
        "headline": {
            "speedup_vs_object_per_session": small["speedup"],
            "min_speedup": MIN_SPEEDUP,
            "tick_ms_at_10k": big["columnar_tick_ms"],
            "max_tick_ms": MAX_TICK_MS,
            "legacy_sha_match": determinism["legacy_sha_match"],
            "shards4_byte_identical": determinism["shards4_byte_identical"],
        },
        "pricing_pass_1024": small,
        "scale_10240": big,
        "determinism": determinism,
    }


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    report = run()
    headline = report["headline"]
    if headline["speedup_vs_object_per_session"] < MIN_SPEEDUP:
        raise SystemExit(
            f"bench_pr9: batched pass is only "
            f"{headline['speedup_vs_object_per_session']}x the "
            f"object-per-session pass at N={SMALL_N} "
            f"(need >= {MIN_SPEEDUP}x) — the SoA core regressed"
        )
    if headline["tick_ms_at_10k"] >= MAX_TICK_MS:
        raise SystemExit(
            f"bench_pr9: a {BIG_N}-session tick takes "
            f"{headline['tick_ms_at_10k']} ms (need < {MAX_TICK_MS} ms "
            f"for interactive control periods)"
        )
    if not headline["legacy_sha_match"]:
        raise SystemExit(
            "bench_pr9: the 16-session seed-2024 fleet output moved off "
            "its pinned sha — the refactor broke determinism"
        )
    if not headline["shards4_byte_identical"]:
        raise SystemExit(
            "bench_pr9: --shards 4 output differs from shards=1 — the "
            "sharded merge broke byte identity"
        )
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sys.argv[1]}: {json.dumps(headline)}")


if __name__ == "__main__":
    main()
