"""Command-line front-end: ``python -m reprolint [paths] [options]``.

Exit codes: 0 clean, 1 violations, 2 usage errors *or* engine-internal
parse/read errors (E901/E902) — a file the analyzer could not see is
never a passing run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from reprolint.analyzer import analyze_paths
from reprolint.baseline import filter_baselined, load_baseline, write_baseline
from reprolint.cache import DEFAULT_CACHE_DIR
from reprolint.engine import Rule
from reprolint.rules import ALL_RULES, rules_by_id
from reprolint.sarif import write_sarif


def _select_rules(
    select: Optional[str], ignore: Optional[str]
) -> List[Rule]:
    registry = rules_by_id()
    if select:
        wanted = [part.strip().upper() for part in select.split(",") if part.strip()]
        unknown = [rule_id for rule_id in wanted if rule_id not in registry]
        if unknown:
            raise SystemExit(f"unknown rule id(s): {', '.join(unknown)}")
        rules: List[Rule] = [registry[rule_id] for rule_id in wanted]
    else:
        rules = list(ALL_RULES)
    if ignore:
        dropped = {part.strip().upper() for part in ignore.split(",") if part.strip()}
        rules = [rule for rule in rules if rule.id not in dropped]
    return rules


def _explain(rule_id: str) -> int:
    registry = rules_by_id()
    rule = registry.get(rule_id.strip().upper())
    if rule is None:
        print(
            f"reprolint: unknown rule id: {rule_id} "
            f"(known: {', '.join(sorted(registry))})",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.id} — {rule.summary}\n")
    doc = sys.modules[type(rule).__module__].__doc__
    if doc:
        print(doc.strip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Repo-native static analysis for the HBO reproduction: "
            "determinism, error hygiene, float equality, unit suffixes, "
            "public-API annotations, layering, RNG-stream discipline, "
            "parity single-source, unreferenced definitions, and "
            "suppression auditing."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the documentation for one rule id and exit",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        type=Path,
        help="also write violations as SARIF 2.1.0 to FILE",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        type=Path,
        help="filter violations recorded in this baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from this run's violations and exit 0",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for the per-file pass (0 = auto)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental analysis cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line; print violations only",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.summary}")
        return 0
    if args.explain:
        return _explain(args.explain)
    rules = _select_rules(args.select, args.ignore)
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"reprolint: no such path: {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2
    if args.update_baseline and args.baseline is None:
        print(
            "reprolint: --update-baseline requires --baseline FILE",
            file=sys.stderr,
        )
        return 2

    jobs = args.jobs
    if jobs <= 0:
        import os

        jobs = min(os.cpu_count() or 1, 8)
    cache_dir = None if args.no_cache else args.cache_dir
    report = analyze_paths(paths, rules, cache_dir=cache_dir, jobs=jobs)
    root = Path.cwd()

    violations = report.violations
    absorbed = 0
    if args.update_baseline:
        write_baseline(args.baseline, violations, root)
        if not args.quiet:
            print(
                f"reprolint: baseline updated with {len(violations)} "
                f"violation(s) -> {args.baseline}"
            )
        return 0
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"reprolint: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        violations, absorbed = filter_baselined(violations, baseline, root)

    if args.sarif is not None:
        write_sarif(args.sarif, violations, rules, root)

    for violation in violations:
        print(violation.render())
    if not args.quiet:
        noun = "violation" if len(violations) == 1 else "violations"
        file_noun = "file" if report.files_analyzed == 1 else "files"
        status = f"{len(violations)} {noun}" if violations else (
            f"clean — 0 {noun}"
        )
        summary = (
            f"reprolint: {status} in {report.files_analyzed} {file_noun} "
            f"({report.suppressed} suppressed)"
        )
        if absorbed:
            summary += f" [{absorbed} baselined]"
        print(summary)
    if report.errors:
        return 2
    return 1 if violations else 0
