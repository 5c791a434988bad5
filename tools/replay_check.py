"""Replay check: the CLI's byte-reproducibility contract in one table.

Usage: python tools/replay_check.py [--no-pins] [CASE ...]

Every case is one ``python -m repro`` invocation. It runs twice — or
once per argument list when the case names a second one (another shard
count, another entry point to the same output) — in fresh temporary
directories, and each artifact (stdout or a file the command writes)
must come out byte-identical across the two runs. Where a case pins an
artifact's sha256, the bytes must also match the pin. The pins were
measured at seed 2024 on CPython 3.11 with NumPy 2.4; on another
interpreter or NumPy build, pass ``--no-pins`` and the double-run
compare is the portable gate. Exits non-zero on the first failure;
naming cases runs only those.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Placeholder in ``argv`` for the run's temporary output directory.
OUT = "{out}"


@dataclass(frozen=True)
class Case:
    """One CLI invocation and the artifacts it must reproduce."""

    name: str
    argv: Tuple[str, ...]
    #: Artifact → pinned sha256 (``None``: compare the runs only).
    #: ``"stdout"`` is the captured stdout; any other key is a file the
    #: command writes into ``{out}``.
    artifacts: Mapping[str, Optional[str]]
    #: The second run's arguments, when it must reach the same bytes
    #: another way (default: ``argv`` again).
    second: Optional[Tuple[str, ...]] = None


#: `fleet-lockin`, run at shards 1 and 2: staggered cohorts whose later
#: arrivals verify and lock onto confirmed store entries.
_LOCKIN = ("fleet", "--sessions", "24", "--seed", "2024", "--initial", "2",
           "--iterations", "3", "--shards")
#: `fleet-scale-smoke`, run at shards 1 and 4.
_SCALE = ("fleet", "--sessions", "12", "--seed", "2024", "--edge-servers", "3",
          "--initial", "2", "--iterations", "3", "--shards")


CASES: Tuple[Case, ...] = (
    Case(
        "fleet-smoke",
        ("fleet", "--sessions", "8", "--initial", "3", "--iterations", "5"),
        {"stdout": "56168907dc946193268a649b67c4930e3414d13562c45107cf9dd0a34e6e4c08"},
    ),
    # The 16-session fleet report through both of its entry points.
    Case(
        "fleet",
        ("fleet", "--sessions", "16", "--seed", "2024"),
        {"stdout": "7be70d883c6a1d7ca503c44006c11fedc4c8dfa6eb3afe9a51c7d4665cecbfcc"},
        second=("experiment", "fleet", "--seed", "2024"),
    ),
    # The warm-start store the same run leaves behind: every scope's
    # entries (confirmed flags, cost-sorted observations) and counters.
    # Stdout echoes the temporary path, so only the JSON is pinned.
    Case(
        "fleet-store",
        ("fleet", "--sessions", "16", "--seed", "2024",
         "--store", f"{OUT}/store.json"),
        {"store.json": "4ed26ee4453e1ef9c6157cc46bc09e0ed7e8a006d29592258d52dbf24b0c6659"},
    ),
    Case(
        "edge-16",
        ("fleet", "--edge", "--sessions", "16", "--seed", "2024"),
        {"stdout": "3385f7e6dbc93a2016632362bdbc4598de28739e21249c9d9a1d13b47ddfebed"},
    ),
    Case(
        "edge-smoke",
        ("fleet", "--edge", "--sessions", "16", "--seed", "2024",
         "--initial", "2", "--iterations", "3"),
        {"stdout": "dc806b27a19d1745a43167bce600bce3589b3c5feec1e951d293a77ef93a6f35"},
    ),
    Case(
        "edge-topology-smoke",
        ("fleet", "--edge-servers", "4", "--sessions", "16", "--seed", "2024",
         "--initial", "2", "--iterations", "3"),
        {"stdout": "b4deeca5f9152cb7863111b0c337c673799bb01a6f79aa592ceea8a692eee97c"},
    ),
    Case(
        "gp-smoke",
        ("fleet", "--gp-tier", "sparse", "--gp-threshold", "6",
         "--sessions", "8", "--seed", "2024", "--initial", "3",
         "--iterations", "8"),
        {"stdout": "9d8fd24ad9b927178c09d2fd7a38098985a0debdb2f43e1e15e741e11f62bb2f"},
    ),
    Case(
        "fleet-scale-smoke",
        _SCALE + ("1",),
        {"stdout": "68cb7ac56e9ef39b6fd261ca494eccd351b554a60ccdb34b3390e8bfa4dc3022"},
        second=_SCALE + ("4",),
    ),
    Case(
        "fleet-lockin",
        _LOCKIN + ("1",),
        {"stdout": "61a6b06554faee12f6eca1d22d6b26b35972bbce5131c41a919cd4c4cb954b43"},
        second=_LOCKIN + ("2",),
    ),
    Case(
        "scenario-smoke",
        ("scenario", "run", "flash-crowd", "--seed", "2024", "--sessions", "6",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/scenario.json"),
        {"scenario.json": "4fd451f63636a7db70abab673cb1c1074ecf26b3c9752fca8bdb8344b6a821b6"},
    ),
    # Catalog entries that exercise the fleet's scene-event, link-drift,
    # shed, rejection and migration paths at full population.
    Case(
        "commuter-mobility",
        ("scenario", "run", "commuter-mobility", "--sessions", "8",
         "--seed", "2024", "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/commuter-mobility.json"),
        {"commuter-mobility.json": "cd9fafb7c5dc127d63b749cb5dd76a8bf2a1a14d17bfc86f0eb16549e9c43063"},
    ),
    Case(
        "network-collapse",
        ("scenario", "run", "network-collapse", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/network-collapse.json"),
        {"network-collapse.json": "e485ecbf01415300d0c1dc74688cd64807ac9c8756be0d22ba7491a458e20e84"},
    ),
    Case(
        "flash-crowd",
        ("scenario", "run", "flash-crowd", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/flash-crowd.json"),
        {"flash-crowd.json": "3bae357427535765a549191a7ee1fb1c0171681b51917ba055c98352ef249f57"},
    ),
    Case(
        "low-tier-surge",
        ("scenario", "run", "low-tier-surge", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/low-tier-surge.json"),
        {"low-tier-surge.json": "ce7956f8e8be749682fe7425972ce6fbe13e5dfb95050ab74e3fdedb4bfa6062"},
    ),
    # The most thermal-heavy catalog entry: every hot session's period
    # runs the throttle recurrence inside `measure_period`.
    Case(
        "hot-device",
        ("scenario", "run", "hot-device", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/hot-device.json"),
        {"hot-device.json": "84f8fc615bc15a81eabe36a65ef6b33769c972d63c5dae16d61340fca23582b6"},
    ),
    # The paper's single-device loop (Alg. 1 via `HBOController.activate`):
    # the exact and sparse GP tiers, device-only and with the edge.
    # Stdout echoes the temporary export path, so only the JSON is pinned.
    Case(
        "tune",
        ("tune", "--seed", "2024", "--export", f"{OUT}/tune.json"),
        {"tune.json": "27e86dd92ac54c198a06d5b015089e76e73a2542f63d0a86e7e6f92467e894c6"},
    ),
    Case(
        "tune-edge",
        ("tune", "--scenario", "SC2", "--taskset", "CF2",
         "--device", "Samsung Galaxy A54", "--edge", "--seed", "2024",
         "--export", f"{OUT}/tune-edge.json"),
        {"tune-edge.json": "8e877e88633856429dd76df23ac206d240490a49af93b1e280f1fa320ac97fdb"},
    ),
    Case(
        "tune-sparse",
        ("tune", "--gp-tier", "sparse", "--gp-threshold", "6",
         "--iterations", "12", "--seed", "2024",
         "--export", f"{OUT}/tune-sparse.json"),
        {"tune-sparse.json": "23ae8554df1582523970fc8adef8d3cbaf17fe027f458f77da9ed8e35b1e2185"},
    ),
    # The paper's own figures: Fig. 4's Table III allocations and
    # convergence, Fig. 5's policy comparison, Fig. 6's per-iteration BO
    # trajectory (consecutive proposal distances) and Fig. 7's run-to-run
    # spread. All run the single-device loop, so these pin its TD path.
    Case(
        "fig4",
        ("experiment", "fig4", "--seed", "2024"),
        {"stdout": "6c354d478b8142ed40848de41ca7e292033108fefc4daf54e717542e4988bc6c"},
    ),
    Case(
        "fig5",
        ("experiment", "fig5", "--seed", "2024"),
        {"stdout": "9791f0dd9e19e4e33f14463d9098f2976bf4972e4aac77da4f90427d429127f1"},
    ),
    Case(
        "fig6",
        ("experiment", "fig6", "--seed", "2024"),
        {"stdout": "da8c2fdacec4f4a9382c5950c216f17073527b881ede798572add41c89b55f42"},
    ),
    Case(
        "fig7",
        ("experiment", "fig7", "--seed", "2024"),
        {"stdout": "92b7af89c55e9999559abe7026cd0d85a99273aa8999218b1432fcf404a90b73"},
    ),
    # The remaining paper experiments: Table I's profiles, Fig. 2's
    # motivation sweep, Fig. 8's baselines, Fig. 9's event-based
    # activation, the w sweep and the device tiers. They run the
    # single-device steady-state solve.
    Case(
        "table1",
        ("experiment", "table1", "--seed", "2024"),
        {"stdout": "346046bbe9d1604279aeb741bb975f58bf6b810141658e363ab47b34c0dd6d7f"},
    ),
    Case(
        "fig2",
        ("experiment", "fig2", "--seed", "2024"),
        {"stdout": "1d613549cd0c08af856a8461615261fe446b494fa18bcaa109c646596efcb5d0"},
    ),
    Case(
        "fig8",
        ("experiment", "fig8", "--seed", "2024"),
        {"stdout": "d11092317fdb5503e0b451f02e1ddeaad91ba317ebd785457667745d4e5513e9"},
    ),
    Case(
        "fig9",
        ("experiment", "fig9", "--seed", "2024"),
        {"stdout": "53bb9d72bc95e590f489074a7242bc0634bd7a36b3b95c7eee3aa750f9a06d2b"},
    ),
    Case(
        "wsweep",
        ("experiment", "wsweep", "--seed", "2024"),
        {"stdout": "0789767f8b70c7ad0eba2edd3bafefd779d327072f053d6cc2ddd1336012fdcb"},
    ),
    Case(
        "devices",
        ("experiment", "devices", "--seed", "2024"),
        {"stdout": "85a6c643d4becb8a9ef2cda24aaf8515d93bf077b8d1afa0f0ab448082092202"},
    ),
    # The repo's own experiments beyond the paper: the noise-free
    # lattice optimum, the edge and saturation sweeps and the scenario
    # catalog summary (`repro experiment fleet` is the `fleet` case).
    Case(
        "frontier",
        ("experiment", "frontier", "--seed", "2024"),
        {"stdout": "d642a651407e681595caa14a47a322d3f1977ee3d87e0b500f05a656dedc110f"},
    ),
    Case(
        "edge",
        ("experiment", "edge", "--seed", "2024"),
        {"stdout": "1df8b53cfef0c58ec95bf023832076b9a9b2071a24f727b31c5e298b8a3c8448"},
    ),
    Case(
        "saturation",
        ("experiment", "saturation", "--seed", "2024"),
        {"stdout": "d71752e729c8ebbb5b40296f639ed235282d23186873e90181afbfef18e8806d"},
    ),
    Case(
        "scenarios",
        ("experiment", "scenarios", "--seed", "2024"),
        {"stdout": "bfa448dc2d75cfb8600ee44a84450efedacf7fd7582b9fc0b4ee937471a456b7"},
    ),
    Case(
        # `repro trace` also exits non-zero unless the trace is a
        # non-empty, schema-valid Chrome trace that round-trips.
        "trace-smoke",
        ("trace", "--fleet", "4", "--initial", "2", "--iterations", "3",
         "--out", f"{OUT}/trace.json", "--metrics", f"{OUT}/metrics.json"),
        {
            "trace.json": "4b6c1f032c5e70ee23bd5a253255a648de2592e7804641365e49078ec148b71a",
            "metrics.json": "beb0e45b2a64b47e541417d4a4d4dce89eb9bd32965c88e124ca7d6ef8d7bea5",
        },
    ),
)


def run_once(case: Case, args: Sequence[str]) -> Dict[str, bytes]:
    """Run ``repro <args>`` once; returns the case's artifacts' bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory(prefix="replay-check-") as out:
        argv = [arg.replace(OUT, out) for arg in args]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=REPO,
            env=env,
            stdout=subprocess.PIPE,
        )
        if proc.returncode != 0:
            raise SystemExit(
                f"FAIL {case.name}: `repro {' '.join(argv)}` exited "
                f"{proc.returncode}"
            )
        return {
            name: proc.stdout if name == "stdout" else (Path(out) / name).read_bytes()
            for name in case.artifacts
        }


def check(case: Case, pins: bool) -> List[str]:
    """Run one case both ways; returns one report line per artifact."""
    other = case.argv if case.second is None else case.second
    runs = [run_once(case, case.argv), run_once(case, other)]
    how = "twice" if case.second is None else f"as `repro {' '.join(other)}`"
    lines = []
    for name, pin in case.artifacts.items():
        first, second = runs[0][name], runs[1][name]
        if first != second:
            raise SystemExit(f"FAIL {case.name}: {name} differs when run {how}")
        digest = hashlib.sha256(first).hexdigest()
        if pins and pin is not None and digest != pin:
            raise SystemExit(
                f"FAIL {case.name}: {name} sha256 {digest} != pinned {pin}"
            )
        checked = "pinned" if pins and pin is not None else "unpinned"
        lines.append(f"ok  {case.name}: {name} identical {how}, "
                     f"sha256 {digest[:12]} ({checked})")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help="run only these cases (default: all)")
    parser.add_argument("--no-pins", action="store_true",
                        help="skip the pinned sha256 checks (other "
                             "interpreters); still byte-compare the runs")
    args = parser.parse_args(argv)
    by_name = {case.name: case for case in CASES}
    unknown = sorted(set(args.cases) - set(by_name))
    if unknown:
        parser.error(f"unknown cases {unknown}; known: {sorted(by_name)}")
    for case in CASES:
        if not args.cases or case.name in args.cases:
            for line in check(case, pins=not args.no_pins):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
