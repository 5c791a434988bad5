"""Deterministic random-number plumbing.

Every stochastic component in the library (BO initialization, measurement
noise, rater noise, workload jitter) draws from a ``numpy.random.Generator``
handed to it explicitly. This module centralizes construction so that a
single integer seed reproduces an entire experiment, and so that independent
subsystems get decorrelated streams via ``spawn``.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Accepts ``None`` (fresh entropy), an ``int`` seed, or an existing
    generator (returned unchanged so callers can thread one stream through).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Split ``seed`` into ``n`` statistically independent generators.

    Uses ``SeedSequence.spawn`` under the hood, so children never collide
    even when the parent stream is also used directly.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    if isinstance(seed, np.random.Generator):
        # Derive a child sequence from the generator's own bit stream.
        children = np.random.SeedSequence(int(seed.integers(0, 2**63))).spawn(n)
    else:
        children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(c) for c in children]


def spawn_shard_rngs(
    seed: SeedLike, shard_rows: Sequence[Sequence[int]]
) -> List[List[np.random.Generator]]:
    """Split ``seed`` into per-shard generator cohorts by global row.

    ``shard_rows`` partitions ``range(n)`` (``n`` the total row count);
    shard ``k``'s ``j``-th generator is the one :func:`spawn_rngs` gives
    global row ``shard_rows[k][j]``:

        ``spawn_shard_rngs(s, rows)[k][j] == spawn_rngs(s, n)[rows[k][j]]``

    This is what lets a sharded fleet run byte-identical to ``shards=1``
    under any row layout (the fleet deals rows out by stride): every
    session draws from the very same generator it would have owned in a
    single-process run.
    """
    rows = [[int(r) for r in shard] for shard in shard_rows]
    n = sum(len(shard) for shard in rows)
    if sorted(r for shard in rows for r in shard) != list(range(n)):
        raise ValueError(f"shard rows must partition range({n})")
    flat = spawn_rngs(seed, n)
    return [[flat[r] for r in shard] for shard in rows]


def derive_seed(seed: SeedLike, *labels: object) -> int:
    """Derive a stable child seed from ``seed`` and hashable ``labels``.

    Useful when an experiment wants per-run seeds keyed by run index or
    scenario name without keeping generator objects around.
    """
    base = 0 if seed is None else (
        int(make_rng(seed).integers(0, 2**31)) if isinstance(seed, np.random.Generator) else int(seed)
    )
    h = (base * 0x9E3779B97F4A7C15) % 2**64
    for label in labels:
        for byte in repr(label).encode():
            h = ((h ^ byte) * 0x100000001B3) % 2**64
    return int(h % (2**31 - 1))
