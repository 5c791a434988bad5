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


#: `fleet-scale-smoke`, run at shards 1 and 4.
_SCALE = ("fleet", "--sessions", "12", "--seed", "2024", "--edge-servers", "3",
          "--initial", "2", "--iterations", "3", "--shards")


CASES: Tuple[Case, ...] = (
    Case(
        "fleet-smoke",
        ("fleet", "--sessions", "8", "--initial", "3", "--iterations", "5"),
        {"stdout": "3a91fad1bd8ca4c5b0521f2a21ea5fd2e480b89fef33e26cad37ed500a082dc3"},
    ),
    # The 16-session fleet report through both of its entry points.
    Case(
        "fleet",
        ("fleet", "--sessions", "16", "--seed", "2024"),
        {"stdout": "6aeef4b7c645f4e14c63f843ff28ad50b959b2e3cc6c6588ab19b5395b320631"},
        second=("experiment", "fleet", "--seed", "2024"),
    ),
    Case(
        "edge-16",
        ("fleet", "--edge", "--sessions", "16", "--seed", "2024"),
        {"stdout": "8a09e209e10df7705c1e064fdb4ffdeb85cefd42e76787931afd7b468bbc9754"},
    ),
    Case(
        "edge-smoke",
        ("fleet", "--edge", "--sessions", "16", "--seed", "2024",
         "--initial", "2", "--iterations", "3"),
        {"stdout": "c6cc54d1b9808517cd75035c6ee2e218470c1e1526982b2f431a7b29439047fb"},
    ),
    Case(
        "edge-topology-smoke",
        ("fleet", "--edge-servers", "4", "--sessions", "16", "--seed", "2024",
         "--initial", "2", "--iterations", "3"),
        {"stdout": "a1aec98ee73f8907195fdc20229e1ad90145f3e08266c2f1e378662c71cd89c0"},
    ),
    Case(
        "gp-smoke",
        ("fleet", "--gp-tier", "sparse", "--gp-threshold", "6",
         "--sessions", "8", "--seed", "2024", "--initial", "3",
         "--iterations", "8"),
        {"stdout": "42b46fa0b8d4cadbf9cd2a40e9e9d01b4fec90b1e3da8bbd8f35632b2b28518c"},
    ),
    Case(
        "fleet-scale-smoke",
        _SCALE + ("1",),
        {"stdout": "71c14fadb2715903708f71784b5eb405cdbbda20b87598850e322c5153dc9a4b"},
        second=_SCALE + ("4",),
    ),
    Case(
        "scenario-smoke",
        ("scenario", "run", "flash-crowd", "--seed", "2024", "--sessions", "6",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/scenario.json"),
        {"scenario.json": "31eae2d2721e722c813da8bdb0f9302b9c495362ef40e5f1f92408e3d4735e43"},
    ),
    # Catalog entries that exercise the fleet's scene-event, link-drift,
    # shed, rejection and migration paths at full population.
    Case(
        "commuter-mobility",
        ("scenario", "run", "commuter-mobility", "--sessions", "8",
         "--seed", "2024", "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/commuter-mobility.json"),
        {"commuter-mobility.json": "4b01fbd7ecf91784ff821a297689299da0a3b09b07be453b3905b65005cbe23a"},
    ),
    Case(
        "network-collapse",
        ("scenario", "run", "network-collapse", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/network-collapse.json"),
        {"network-collapse.json": "f4bd5618bb18ff5507f5a8cde9e0dc5340a554a100c948dfc86bf0f44f808a76"},
    ),
    Case(
        "flash-crowd",
        ("scenario", "run", "flash-crowd", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/flash-crowd.json"),
        {"flash-crowd.json": "fd42473edf8443bf3f2ec8fefad0373b3068c76a8f46a74ab8476819814eb556"},
    ),
    Case(
        "low-tier-surge",
        ("scenario", "run", "low-tier-surge", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/low-tier-surge.json"),
        {"low-tier-surge.json": "c3f45a8c10b37a55db79a65e27f1380a76bca07c4ad66d07d072a76c506d8d9a"},
    ),
    # The most thermal-heavy catalog entry: every hot session's period
    # runs the throttle recurrence inside `measure_period`.
    Case(
        "hot-device",
        ("scenario", "run", "hot-device", "--seed", "2024",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/hot-device.json"),
        {"hot-device.json": "81d52a46efa3c69fd6965bd190945d3d364b50f189a4861addfb017e8d55a145"},
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
