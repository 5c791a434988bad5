"""Regret of a fleet's final configurations against the exact optimum.

Usage: python tools/fleet_regret.py [--sessions N] [--seed S]
                                    [--initial K] [--iterations K]

Runs the staggered-cohort fleet of ``repro fleet`` (``default_fleet_specs``,
device-only, one process) and scores every session's final configuration
(its best ``z``) with :func:`repro.core.frontier.regret`: noise-free φ
minus the lowest φ over the exact decision lattice at the fleet's ``w``.
Prints one line per session and the median, p90 and max, plus how many
sessions finished locked onto a stored solution.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.controller import HBOConfig  # noqa: E402
from repro.core.frontier import regret  # noqa: E402
from repro.fleet.scheduler import FleetConfig, FleetScheduler  # noqa: E402
from repro.rng import derive_seed  # noqa: E402
from repro.scenarios.generator import default_fleet_specs  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--initial", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=3)
    args = parser.parse_args(argv)
    hbo = HBOConfig(n_initial=args.initial, n_iterations=args.iterations)
    specs = default_fleet_specs(args.sessions, hbo, seed=args.seed)
    scheduler = FleetScheduler(
        specs, seed=derive_seed(args.seed, "fleet"), config=FleetConfig(hbo=hbo)
    )
    result = scheduler.run()
    assert scheduler._worker is not None  # one shard: sessions in-process
    values: List[float] = []
    for session, report in zip(scheduler._worker.sessions, result.reports):
        assert session.system is not None and session.best is not None
        value = regret(session.system, session.best.z, hbo.w)
        values.append(value)
        print(f"{report.session_id:<22s} locked={int(report.locked_in)} "
              f"regret={value:.6f}")
    print(f"median {np.median(values):.6f}  p90 {np.percentile(values, 90):.6f}  "
          f"max {np.max(values):.6f}  locked "
          f"{sum(r.locked_in for r in result.reports)}/{len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
