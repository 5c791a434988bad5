"""Unit aliases and conversions for temporal quantities.

The repo-wide convention (enforced by reprolint rule RL004) is that every
temporal value carries its unit, either in the name (``latency_ms``,
``period_s``) or in the annotation via these aliases:

- :data:`Ms` — milliseconds. Per-task AI latencies, frame times, NNAPI
  coordination costs (the paper's Table I and Eq. 4 operate in ms).
- :data:`Seconds` — seconds. Simulated session time, control periods
  (Fig. 2 / Fig. 8 axes are seconds).

The aliases are plain ``float`` at runtime — they exist for reader and
type-checker consumption, not dimensional analysis — so no call-site
changes when a signature migrates to them.
"""

from __future__ import annotations

#: Milliseconds. Annotation alias; plain ``float`` at runtime.
Ms = float
#: Seconds. Annotation alias; plain ``float`` at runtime.
Seconds = float


__all__ = ["Ms", "Seconds"]
