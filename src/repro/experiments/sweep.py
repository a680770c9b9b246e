"""Figure points and density sweeps: the x-axis of every figure in Section 5.

One *point* of a paper figure is one (deployment model, node count)
pair, evaluated over ``networks`` random networks with
``routes_per_network`` random source-destination pairs each, for every
routing scheme.  A :class:`PointResult` is that point's per-router
aggregate: the payload of one Study cell and the value the result
cache stores.

"We test the networks when the number of nodes in the interest area is
varied from 400 to 800 in increments of 50."  A :class:`SweepResult`
holds one deployment model's full density sweep — every configured
node count with its complete :class:`PointResult` — so all three
figures project from a single run.

Both are *produced* by the declarative Study API:
``Study.from_config(config, models).run().sweep_result(model)``
compiles the config × deployment-model grid, evaluates each cell
through :func:`~repro.api.session.run_scenario` on the engine's cached
task stream, and adapts the result into this container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import Summary
from repro.experiments.config import ExperimentConfig

__all__ = ["PointResult", "RouterPointMetrics", "SweepResult"]


@dataclass(frozen=True)
class RouterPointMetrics:
    """Aggregated performance of one router at one figure point.

    Hop and length statistics are over *delivered* routes (the paper
    reports path metrics, not delivery failures — failures are
    surfaced separately via ``delivery_rate``).
    """

    router: str
    samples: int
    delivered: int
    hops: Summary
    length: Summary
    max_hops: int
    perimeter_entries_per_route: float
    backup_entries_per_route: float

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.samples if self.samples else 0.0


@dataclass(frozen=True)
class PointResult:
    """All routers' metrics at one (deployment, node count) point."""

    deployment_model: str
    node_count: int
    networks: int
    per_router: dict[str, RouterPointMetrics] = field(repr=False)

    def metric(self, router: str, name: str) -> float:
        """Scalar projection used by the figure tables."""
        metrics = self.per_router[router]
        if name == "mean_hops":
            return metrics.hops.mean
        if name == "max_hops":
            return float(metrics.max_hops)
        if name == "mean_length":
            return metrics.length.mean
        if name == "delivery_rate":
            return metrics.delivery_rate
        if name == "perimeter_entries":
            return metrics.perimeter_entries_per_route
        raise KeyError(f"unknown metric {name!r}")


@dataclass(frozen=True)
class SweepResult:
    """One deployment model's full density sweep."""

    deployment_model: str
    config: ExperimentConfig
    points: tuple[PointResult, ...]

    @property
    def node_counts(self) -> tuple[int, ...]:
        return tuple(p.node_count for p in self.points)

    def routers(self) -> tuple[str, ...]:
        """Router names present (stable order across points)."""
        if not self.points:
            return ()
        seen = self.points[0].per_router
        return tuple(seen)

    def series(self, router: str, metric: str) -> list[float]:
        """One curve: ``metric`` for ``router`` across node counts."""
        return [p.metric(router, metric) for p in self.points]
