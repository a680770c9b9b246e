"""Deployment models: where the sensors land.

Section 5 evaluates two deployment models over a 200 m x 200 m interest
area:

* **IA (ideal)** — "nodes will be deployed uniformly ... the hole is
  only caused by a sparse deployment";
* **FA (forbidden areas)** — uniform deployment with random forbidden
  areas "where no nodes can be deployed", producing large holes.

Both are exposed as deployment *strategies* plus two one-call
convenience functions used by the experiment harness.  Two further
strategies (jittered grid, Poisson-disk) are provided for tests and for
studying the algorithms under regular / blue-noise placement, which the
paper's future-work section gestures at ("search for a new balance
point").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.geometry import Point, Rect
from repro.network.obstacles import Obstacle, random_obstacle_field

__all__ = [
    "DeploymentResult",
    "Deployment",
    "GridDeployment",
    "PoissonDiskDeployment",
    "UniformDeployment",
    "deploy_forbidden_area_model",
    "deploy_uniform_model",
]

# Rejection sampling bails out after this many consecutive failed draws
# per point; hitting it means the obstacles cover (nearly) all of the
# area and the configuration is unusable.
_MAX_REJECTIONS_PER_POINT = 10_000


@dataclass(frozen=True)
class DeploymentResult:
    """Outcome of a deployment: positions plus the generating context."""

    positions: tuple[Point, ...]
    area: Rect
    obstacles: tuple[Obstacle, ...] = ()
    model: str = "uniform"

    def __len__(self) -> int:
        return len(self.positions)


class Deployment(Protocol):
    """A placement strategy for ``count`` sensors."""

    area: Rect

    def sample(self, count: int, rng: random.Random) -> list[Point]:
        """Draw ``count`` positions (all outside any forbidden area)."""
        ...


def _clear_of_obstacles(p: Point, obstacles: Sequence[Obstacle]) -> bool:
    return all(not obstacle.contains(p) for obstacle in obstacles)


@dataclass(frozen=True)
class UniformDeployment:
    """Uniform random placement, rejecting draws inside forbidden areas.

    With ``obstacles=()`` this is exactly the paper's IA model; with a
    non-empty obstacle field it is the FA model.
    """

    area: Rect
    obstacles: tuple[Obstacle, ...] = ()

    def sample(self, count: int, rng: random.Random) -> list[Point]:
        if count < 0:
            raise ValueError("count must be non-negative")
        points: list[Point] = []
        for _ in range(count):
            for _attempt in range(_MAX_REJECTIONS_PER_POINT):
                p = Point(
                    rng.uniform(self.area.x_min, self.area.x_max),
                    rng.uniform(self.area.y_min, self.area.y_max),
                )
                if _clear_of_obstacles(p, self.obstacles):
                    points.append(p)
                    break
            else:
                raise RuntimeError(
                    "deployment rejection sampling exhausted: forbidden "
                    "areas cover (nearly) the whole interest area"
                )
        return points


@dataclass(frozen=True)
class GridDeployment:
    """Near-regular lattice with uniform jitter.

    ``jitter`` is the maximum per-axis displacement as a fraction of the
    lattice spacing; ``0`` gives a perfect grid (handy for hand-checked
    routing tests), ``0.5`` lets adjacent cells' nodes swap order.
    Lattice sites falling inside obstacles are dropped, so the returned
    list may be shorter than ``count`` under heavy obstruction.
    """

    area: Rect
    jitter: float = 0.0
    obstacles: tuple[Obstacle, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def sample(self, count: int, rng: random.Random) -> list[Point]:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return []
        aspect = self.area.width / self.area.height if self.area.height else 1.0
        ny = max(1, round(math.sqrt(count / max(aspect, 1e-9))))
        nx = max(1, math.ceil(count / ny))
        dx = self.area.width / nx
        dy = self.area.height / ny
        points: list[Point] = []
        for j in range(ny):
            for i in range(nx):
                if len(points) == count:
                    return points
                base = Point(
                    self.area.x_min + (i + 0.5) * dx,
                    self.area.y_min + (j + 0.5) * dy,
                )
                p = Point(
                    base.x + rng.uniform(-self.jitter, self.jitter) * dx,
                    base.y + rng.uniform(-self.jitter, self.jitter) * dy,
                )
                p = self.area.clamp(p)
                if _clear_of_obstacles(p, self.obstacles):
                    points.append(p)
        return points


@dataclass(frozen=True)
class PoissonDiskDeployment:
    """Dart-throwing placement with a minimum pairwise separation.

    Blue-noise deployments avoid the density spikes of uniform sampling
    and therefore have markedly fewer sparse-deployment holes at equal
    node count; the ablation benches use this to separate "hole caused
    by obstacle" from "hole caused by randomness".
    """

    area: Rect
    min_separation: float
    obstacles: tuple[Obstacle, ...] = ()

    def __post_init__(self) -> None:
        if self.min_separation <= 0:
            raise ValueError("min_separation must be positive")

    def sample(self, count: int, rng: random.Random) -> list[Point]:
        if count < 0:
            raise ValueError("count must be non-negative")
        from repro.network.spatial import SpatialGrid

        grid = SpatialGrid(cell_size=self.min_separation)
        points: list[Point] = []
        failures = 0
        while len(points) < count and failures < _MAX_REJECTIONS_PER_POINT:
            p = Point(
                rng.uniform(self.area.x_min, self.area.x_max),
                rng.uniform(self.area.y_min, self.area.y_max),
            )
            if not _clear_of_obstacles(p, self.obstacles):
                failures += 1
                continue
            clash = next(
                grid.neighbors_within(p, self.min_separation), None
            )
            if clash is not None:
                failures += 1
                continue
            grid.insert(len(points), p)
            points.append(p)
            failures = 0
        return points


def deploy_uniform_model(
    count: int, area: Rect, rng: random.Random
) -> DeploymentResult:
    """The paper's IA model: ``count`` uniform nodes, no obstacles."""
    deployment = UniformDeployment(area)
    return DeploymentResult(
        positions=tuple(deployment.sample(count, rng)),
        area=area,
        obstacles=(),
        model="IA",
    )


def deploy_forbidden_area_model(
    count: int,
    area: Rect,
    rng: random.Random,
    obstacle_count: int = 3,
    min_obstacle_size: float = 20.0,
    max_obstacle_size: float = 60.0,
    shapes: Sequence[str] = ("rect", "disc", "l"),
) -> DeploymentResult:
    """The paper's FA model: uniform nodes avoiding random forbidden areas.

    The obstacle field is drawn first (from the same ``rng``), then the
    nodes are placed around it; see :mod:`repro.network.obstacles` for
    why this parameterised generator stands in for the paper's
    unpublished one.
    """
    obstacles = tuple(
        random_obstacle_field(
            area,
            obstacle_count,
            rng,
            min_size=min_obstacle_size,
            max_size=max_obstacle_size,
            shapes=shapes,
        )
    )
    deployment = UniformDeployment(area, obstacles)
    return DeploymentResult(
        positions=tuple(deployment.sample(count, rng)),
        area=area,
        obstacles=obstacles,
        model="FA",
    )
