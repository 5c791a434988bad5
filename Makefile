# Convenience entries mirroring .github/workflows/ci.yml.
# `make check` is the full pre-merge gate.

PYTHON ?= python

.PHONY: reprolint ruff mypy lint test replay-check bench bench-smoke check

reprolint:
	PYTHONPATH=tools $(PYTHON) -m reprolint src benchmarks examples \
		--baseline reprolint_baseline.json

# ruff/mypy come from `pip install -e .[dev]`; skip with a notice when the
# container doesn't have them so `make lint` stays useful everywhere.
ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null; then \
		ruff check src tools benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e .[dev]) — skipping"; \
	fi

mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed (pip install -e .[dev]) — skipping"; \
	fi

lint: reprolint ruff mypy

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The CLI's byte-reproducibility contract: every fleet/edge/topology/GP/
# shard/scenario/trace invocation in tools/replay_check.py runs twice (or
# at two shard counts), byte-compares, and checks its pinned sha256.
replay-check:
	$(PYTHON) tools/replay_check.py

# Time the hot kernels and distill the scalar-vs-batched backend numbers
# into the committed BENCH_pr4.json (see docs/performance.md).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_microbench.py -q \
		--benchmark-only --benchmark-json=/tmp/repro-bench-pr4.json
	$(PYTHON) tools/bench_pr4.py /tmp/repro-bench-pr4.json BENCH_pr4.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr5.py BENCH_pr5.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr7.py BENCH_pr7.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr8.py BENCH_pr8.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr9.py BENCH_pr9.json
	PYTHONPATH=src $(PYTHON) tools/bench_pr10.py BENCH_pr10.json

# Run every microbench body once, untimed: catches API drift in the bench
# suite without paying for calibration rounds.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_microbench.py -q \
		--benchmark-disable

check: lint test replay-check bench-smoke
