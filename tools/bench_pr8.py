"""Measure GP fit time vs dataset size for both surrogate tiers →
BENCH_pr8.json.

Usage: PYTHONPATH=src python tools/bench_pr8.py <output-json>

At each n in the sweep the script times (a) a full exact
``GaussianProcess.fit`` — the O(n³) refit every guided BO iteration pays
on the exact tier — and (b) the sparse tier's fit: ``select_support``
with the default support budget (64), then the exact fit on that
subset, whose cost is O(n log n) selection plus a fixed O(m³)
factorization. The headline is the growth ratio between the
two tiers from the smallest to the largest n: the exact tier's fit time
must grow at least 5× faster than the sparse tier's, or the script exits
non-zero (so ``make bench`` catches a broken tier).

It also re-checks the parity contract the unit tests pin: at n ≤ the
support budget the sparse tier runs the identical exact fit, so the two
posteriors must agree *bitwise* (tolerance 0.0 — see docs/optimizer.md).

Synthetic data is drawn once per n from ``repro.rng`` streams, so the
dataset (and the parity outcome) is reproducible; the timings themselves
are host-dependent and re-measured by every ``make bench``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List

import numpy as np

from repro.bo.gp import GaussianProcess
from repro.bo.sparse import select_support
from repro.rng import derive_seed, make_rng

DIM = 4
SUPPORT_BUDGET = 64
SWEEP = (32, 64, 128, 256, 512, 1024)
REPEATS = 3
MIN_GROWTH_RATIO = 5.0


def _dataset(n: int) -> "tuple[np.ndarray, np.ndarray]":
    rng = make_rng(derive_seed(2024, "bench-pr8", n))
    x = rng.uniform(size=(n, DIM))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    return x, y


def _exact_fit(x: np.ndarray, y: np.ndarray) -> GaussianProcess:
    return GaussianProcess(noise=1e-3).fit(x, y)


def _sparse_fit(x: np.ndarray, y: np.ndarray) -> GaussianProcess:
    support = select_support(y, SUPPORT_BUDGET)
    return _exact_fit(x[support], y[support])


def _time_fit(
    fit: Callable[[np.ndarray, np.ndarray], GaussianProcess],
    x: np.ndarray,
    y: np.ndarray,
) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fit(x, y)
        best = min(best, time.perf_counter() - start)
    return best


def run() -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    for n in SWEEP:
        x, y = _dataset(n)
        exact_s = _time_fit(_exact_fit, x, y)
        sparse_s = _time_fit(_sparse_fit, x, y)
        rows.append(
            {
                "n": n,
                "exact_fit_ms": round(exact_s * 1e3, 4),
                "sparse_fit_ms": round(sparse_s * 1e3, 4),
                "speedup": round(exact_s / sparse_s, 2),
            }
        )

    # Parity at n ≤ the support budget: identical code path, bitwise-equal.
    x, y = _dataset(SUPPORT_BUDGET)
    q = make_rng(derive_seed(2024, "bench-pr8", "query")).uniform(
        size=(32, DIM)
    )
    exact_post = _exact_fit(x, y).predict(q)
    sparse_post = _sparse_fit(x, y).predict(q)
    parity_bitwise = bool(
        np.array_equal(exact_post.mean, sparse_post.mean)
        and np.array_equal(exact_post.std, sparse_post.std)
    )

    first, last = rows[0], rows[-1]
    exact_growth = last["exact_fit_ms"] / first["exact_fit_ms"]
    sparse_growth = last["sparse_fit_ms"] / first["sparse_fit_ms"]
    growth_ratio = exact_growth / sparse_growth

    return {
        "source": "tools/bench_pr8.py (make bench)",
        "setup": {
            "dim": DIM,
            "support_budget": SUPPORT_BUDGET,
            "sweep": list(SWEEP),
            "repeats": REPEATS,
            "noise": 1e-3,
        },
        "headline": {
            "exact_growth": round(exact_growth, 2),
            "sparse_growth": round(sparse_growth, 2),
            "growth_ratio": round(growth_ratio, 2),
            "min_growth_ratio": MIN_GROWTH_RATIO,
            "speedup_at_max_n": last["speedup"],
            "parity_bitwise_at_small_n": parity_bitwise,
        },
        "fit_time_vs_n": rows,
    }


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    report = run()
    headline = report["headline"]
    if not headline["parity_bitwise_at_small_n"]:
        raise SystemExit(
            "bench_pr8: sparse tier lost bitwise parity at n <= budget"
        )
    if headline["growth_ratio"] < MIN_GROWTH_RATIO:
        raise SystemExit(
            f"bench_pr8: exact fit time grew only "
            f"{headline['growth_ratio']}x faster than sparse over the sweep "
            f"(need >= {MIN_GROWTH_RATIO}x) — the sparse tier is broken"
        )
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sys.argv[1]}: {json.dumps(headline)}")


if __name__ == "__main__":
    main()
