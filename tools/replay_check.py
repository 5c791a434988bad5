"""Replay check: the CLI's byte-reproducibility contract in one table.

Usage: python tools/replay_check.py [--no-pins] [CASE ...]

Every case is one ``python -m repro`` invocation. It runs twice — or
once per shard count when the case names two — in fresh temporary
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
    #: Run at these two shard counts (appended as ``--shards N``)
    #: instead of twice at the same one.
    shards: Optional[Tuple[int, int]] = None


CASES: Tuple[Case, ...] = (
    Case(
        "fleet-smoke",
        ("fleet", "--sessions", "8", "--initial", "3", "--iterations", "5"),
        {"stdout": "3a91fad1bd8ca4c5b0521f2a21ea5fd2e480b89fef33e26cad37ed500a082dc3"},
    ),
    Case(
        "fleet-16",
        ("fleet", "--sessions", "16", "--seed", "2024"),
        {"stdout": "6aeef4b7c645f4e14c63f843ff28ad50b959b2e3cc6c6588ab19b5395b320631"},
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
        ("fleet", "--sessions", "12", "--seed", "2024", "--edge-servers", "3",
         "--initial", "2", "--iterations", "3"),
        {"stdout": "71c14fadb2715903708f71784b5eb405cdbbda20b87598850e322c5153dc9a4b"},
        shards=(1, 4),
    ),
    Case(
        "scenario-smoke",
        ("scenario", "run", "flash-crowd", "--seed", "2024", "--sessions", "6",
         "--initial", "2", "--iterations", "3",
         "--export", f"{OUT}/scenario.json"),
        {"scenario.json": "31eae2d2721e722c813da8bdb0f9302b9c495362ef40e5f1f92408e3d4735e43"},
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


def run_once(case: Case, extra: Sequence[str]) -> Dict[str, bytes]:
    """Run the case's command once; returns its artifacts' bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory(prefix="replay-check-") as out:
        argv = [arg.replace(OUT, out) for arg in case.argv] + list(extra)
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
    if case.shards is None:
        runs = [run_once(case, ()), run_once(case, ())]
    else:
        runs = [run_once(case, ("--shards", str(n))) for n in case.shards]
    how = "twice" if case.shards is None else "at shards %d and %d" % case.shards
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
