"""Experiment configuration — the knobs of Section 5.

The paper's setting:

    "nodes with a transmission radius of 20 meters are deployed to
    cover an interest area of 200m x 200m ... the number of nodes in
    the interest area is varied from 400 to 800 in increments of 50.
    For each case, 100 networks are randomly generated, and the average
    routing performance over all of these randomly sampled networks is
    reported."

:data:`PAPER_CONFIG` encodes exactly that; :data:`QUICK_CONFIG` is a
laptop-scale reduction (same shape, fewer networks/points) used by the
pytest benches so the suite stays fast.  The full-scale run is opted
into by setting the environment variable ``REPRO_FULL=1`` or calling
the figure functions with ``PAPER_CONFIG``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.geometry import Rect

__all__ = [
    "ExperimentConfig",
    "PAPER_CONFIG",
    "QUICK_CONFIG",
    "active_config",
    "default_jobs",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one evaluation sweep."""

    area: Rect = field(default_factory=lambda: Rect(0, 0, 200, 200))
    radius: float = 20.0
    node_counts: tuple[int, ...] = tuple(range(400, 801, 50))
    networks_per_point: int = 100
    routes_per_network: int = 20
    seed: int = 2009  # the paper's publication year, for flavour
    # FA model obstacle field parameters (the paper's generator is
    # unpublished; repro.network.obstacles says what stands in for it).
    obstacle_count: int = 3
    min_obstacle_size: float = 20.0
    max_obstacle_size: float = 60.0

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not self.node_counts:
            raise ValueError("node_counts must not be empty")
        if any(n <= 1 for n in self.node_counts):
            raise ValueError("node counts must be >= 2")
        if self.networks_per_point < 1 or self.routes_per_network < 1:
            raise ValueError("networks and routes per point must be >= 1")


PAPER_CONFIG = ExperimentConfig()

QUICK_CONFIG = ExperimentConfig(
    node_counts=(400, 500, 600, 700, 800),
    networks_per_point=10,
    routes_per_network=10,
)


def active_config() -> ExperimentConfig:
    """The config the benches should use.

    ``REPRO_FULL=1`` selects the paper-scale sweep; anything else the
    quick one.
    """
    if os.environ.get("REPRO_FULL", "") == "1":
        return PAPER_CONFIG
    return QUICK_CONFIG


def default_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS``.

    Unset or empty means 1 (serial — parallelism is opt-in so small
    runs never pay process start-up for nothing); ``0`` or ``auto``
    means one worker per CPU; any other value must be a positive
    integer.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    if raw.lower() == "auto":
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be a non-negative integer or 'auto', "
            f"got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"REPRO_JOBS must be >= 0, got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value
