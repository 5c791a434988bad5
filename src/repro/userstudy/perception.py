"""Quality → mean-opinion-score psychometrics.

Maps the model quality Q of Eq. 2 (0 = fully degraded, 1 = reference) to
the 1–5 opinion scale of the paper's user study. Human quality ratings
follow a saturating psychometric curve: ratings stick near the ceiling
while degradation is imperceptible and fall steeply once artifacts become
visible. We use a logistic

    MOS(Q) = 1 + 4 · σ(k · (Q − q₀))

calibrated so the paper's own anchor points hold: HBO at Q ≈ 0.87 rates
≈ 4.9 and SML at triangle ratio 0.2 (Q ≈ 0.5) rates ≈ 3 (§V-E, Fig. 9a).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class PerceptionModel:
    """Logistic psychometric curve from model quality to a 1–5 score."""

    def __init__(self, steepness: float = 8.0, midpoint: float = 0.5) -> None:
        if steepness <= 0:
            raise ConfigurationError(f"steepness must be > 0, got {steepness}")
        if not 0.0 < midpoint < 1.0:
            raise ConfigurationError(
                f"midpoint must be in (0, 1), got {midpoint}"
            )
        self.steepness = float(steepness)
        self.midpoint = float(midpoint)

    def mean_opinion_score(self, quality: float) -> float:
        """Expected 1–5 rating for an object set at model quality Q."""
        if not 0.0 <= quality <= 1.0:
            raise ConfigurationError(f"quality must be in [0, 1], got {quality}")
        sigmoid = 1.0 / (1.0 + np.exp(-self.steepness * (quality - self.midpoint)))
        return float(1.0 + 4.0 * sigmoid)
