"""Forbidden-area obstacles for the FA deployment model.

Section 5: "we randomly set some forbidden areas inside [the] interest
area, where no nodes can be deployed.  The forbidden areas, which may
be irregular, are constructed to study the impact of larger holes."

The paper does not publish its obstacle generator, so this module
provides a parameterised family that preserves the relevant behaviour
(large, possibly irregular deployment holes):

* :class:`RectObstacle` — axis-aligned rectangle;
* :class:`DiscObstacle` — circular hole;
* :class:`CompositeObstacle` — union of obstacles, used to build the
  irregular L/T/U shapes the paper alludes to;
* :func:`random_obstacle_field` — a seeded random mixture of the above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.geometry import Point, Rect

__all__ = [
    "CompositeObstacle",
    "DiscObstacle",
    "Obstacle",
    "RectObstacle",
    "random_obstacle_field",
]


@runtime_checkable
class Obstacle(Protocol):
    """Anything that can veto a deployment position."""

    def contains(self, p: Point) -> bool:
        """True when ``p`` lies inside the forbidden area."""
        ...

    def bounding_rect(self) -> Rect:
        """Axis-aligned bounding rectangle (for area accounting)."""
        ...


@dataclass(frozen=True, slots=True)
class RectObstacle:
    """Axis-aligned rectangular forbidden area."""

    rect: Rect

    def contains(self, p: Point) -> bool:
        return self.rect.contains(p)

    def bounding_rect(self) -> Rect:
        return self.rect


@dataclass(frozen=True, slots=True)
class DiscObstacle:
    """Circular forbidden area."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("obstacle radius must be positive")

    def contains(self, p: Point) -> bool:
        return self.center.distance_squared_to(p) <= self.radius * self.radius

    def bounding_rect(self) -> Rect:
        return Rect(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )


class CompositeObstacle:
    """Union of obstacles — builds the paper's "irregular" holes.

    An L-shape, for example, is the union of two overlapping
    rectangles; a blob is a chain of overlapping discs.
    """

    def __init__(self, parts: Sequence[Obstacle]):
        if not parts:
            raise ValueError("composite obstacle needs at least one part")
        self._parts = tuple(parts)

    @property
    def parts(self) -> tuple[Obstacle, ...]:
        """The member obstacles of the union."""
        return self._parts

    def contains(self, p: Point) -> bool:
        return any(part.contains(p) for part in self._parts)

    def bounding_rect(self) -> Rect:
        bounds = self._parts[0].bounding_rect()
        for part in self._parts[1:]:
            bounds = bounds.union_bounds(part.bounding_rect())
        return bounds


def _random_rect_obstacle(
    rng: random.Random, area: Rect, min_size: float, max_size: float
) -> RectObstacle:
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    x = rng.uniform(area.x_min, max(area.x_min, area.x_max - w))
    y = rng.uniform(area.y_min, max(area.y_min, area.y_max - h))
    return RectObstacle(Rect(x, y, min(x + w, area.x_max), min(y + h, area.y_max)))


def _random_disc_obstacle(
    rng: random.Random, area: Rect, min_size: float, max_size: float
) -> DiscObstacle:
    r = rng.uniform(min_size, max_size) / 2.0
    cx = rng.uniform(area.x_min + r, max(area.x_min + r, area.x_max - r))
    cy = rng.uniform(area.y_min + r, max(area.y_min + r, area.y_max - r))
    return DiscObstacle(Point(cx, cy), r)


def _random_l_shape(
    rng: random.Random, area: Rect, min_size: float, max_size: float
) -> CompositeObstacle:
    """Two overlapping rectangles sharing a corner region."""
    base = _random_rect_obstacle(rng, area, min_size, max_size).rect
    # The second arm hangs off one corner of the base.
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size / 2.0, max_size / 2.0)
    if rng.random() < 0.5:
        arm = Rect(
            base.x_min,
            max(area.y_min, base.y_min - h),
            min(base.x_min + w, area.x_max),
            base.y_min,
        )
    else:
        arm = Rect(
            base.x_max,
            base.y_min,
            min(base.x_max + w, area.x_max),
            min(base.y_min + h, area.y_max),
        )
    parts: list[Obstacle] = [RectObstacle(base)]
    if not arm.is_degenerate():
        parts.append(RectObstacle(arm))
    return CompositeObstacle(parts)


def random_obstacle_field(
    area: Rect,
    count: int,
    rng: random.Random,
    min_size: float = 20.0,
    max_size: float = 60.0,
    shapes: Sequence[str] = ("rect", "disc", "l"),
) -> list[Obstacle]:
    """A seeded random field of ``count`` forbidden areas inside ``area``.

    ``min_size``/``max_size`` bound the obstacle footprint edge (or
    diameter); the defaults of 20-60 m are 1-3 communication radii in
    the paper's 200 m x 200 m / r=20 m setting — large enough to create
    multi-hop detours, small enough to keep the network connected at the
    evaluated densities.
    """
    if count < 0:
        raise ValueError("obstacle count must be non-negative")
    if min_size <= 0 or max_size < min_size:
        raise ValueError("need 0 < min_size <= max_size")
    builders = {
        "rect": _random_rect_obstacle,
        "disc": _random_disc_obstacle,
        "l": _random_l_shape,
    }
    unknown = set(shapes) - set(builders)
    if unknown:
        raise ValueError(f"unknown obstacle shapes: {sorted(unknown)}")
    if not shapes:
        raise ValueError("shapes must not be empty")
    field: list[Obstacle] = []
    for _ in range(count):
        shape = rng.choice(list(shapes))
        field.append(builders[shape](rng, area, min_size, max_size))
    return field
