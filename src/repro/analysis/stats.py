"""Summary statistics for experiment aggregation.

The paper reports "the average routing performance over all of these
randomly sampled networks"; we additionally carry a 95% confidence
interval, which states how tight the reproduction's averages are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "mean_confidence_interval", "summarize"]

# Two-sided 95% quantile of the standard normal; with the paper's 100
# networks per point the normal approximation is comfortably valid.
_Z95 = 1.959963984540054


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary of one metric series."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci95_half_width: float

    def format_mean(self, digits: int = 2) -> str:
        """``mean ± ci`` rendering for report tables."""
        return f"{self.mean:.{digits}f}±{self.ci95_half_width:.{digits}f}"


def summarize(values: Sequence[float]) -> Summary:
    """Summary of a non-empty sequence of values."""
    if not values:
        raise ValueError("cannot summarize an empty sequence")
    n = len(values)
    # math.fsum is correctly rounded on every Python; the builtin sum()
    # changed its float algorithm in 3.12, which would make the same
    # routes aggregate to different bits under different interpreters.
    mean = math.fsum(values) / n
    if n > 1:
        variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        variance = 0.0
    std = math.sqrt(variance)
    half = _Z95 * std / math.sqrt(n) if n > 1 else 0.0
    return Summary(
        count=n,
        mean=mean,
        std=std,
        minimum=min(values),
        maximum=max(values),
        ci95_half_width=half,
    )


def mean_confidence_interval(
    values: Sequence[float],
) -> tuple[float, float, float]:
    """(mean, low, high) of the 95% confidence interval of the mean."""
    summary = summarize(values)
    return (
        summary.mean,
        summary.mean - summary.ci95_half_width,
        summary.mean + summary.ci95_half_width,
    )
