"""Boundary detection: convex hull and alpha-shape (concave) boundary.

Section 3 of the paper assumes "all of the communication actions occur
inside the interest area.  This area is an inner part of the deployment
area encircled by the edge of networks, which can easily be built by
the hull algorithm.  In our labeling process, each edge node will
always keep its status tuple as (1, 1, 1, 1)."

The labeling process therefore needs a notion of *edge node*.  Two
implementations are provided:

* :func:`convex_hull` — Andrew's monotone chain; exact, dependency-free,
  and adequate for convex (IA / uniform) deployments;
* :func:`alpha_shape_boundary` — a Delaunay-based alpha shape that also
  follows concave deployment outlines, which matters under the FA model
  when forbidden areas touch the boundary of the deployment region.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from repro._optional import load_numpy
from repro.geometry.point import Point

__all__ = ["convex_hull", "alpha_shape_boundary", "hull_indices"]


def _delaunay():
    """The scipy/numpy trio the alpha shape needs, or ``None``.

    The numpy probe is the package-wide guard
    (:func:`repro._optional.load_numpy` — shared with the vectorized
    routing backend, so the two cannot drift); scipy rides the same
    check because an environment missing either must degrade the same
    way.  The degradation is loud — a concave deployment outline
    silently approximated by its convex hull would mislabel boundary
    nodes with no hint why.
    """
    np = load_numpy()
    if np is not None:
        try:
            from scipy.spatial import Delaunay, QhullError
        except ImportError:
            np = None
    if np is None:
        warnings.warn(
            "scipy/numpy unavailable: alpha_shape_boundary falls back "
            "to the convex hull, which cannot follow concave "
            "deployment outlines (install scipy for exact alpha "
            "shapes)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return np, Delaunay, QhullError


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def hull_indices(points: Sequence[Point]) -> list[int]:
    """Indices (into ``points``) of the convex hull, counter-clockwise.

    Collinear points *on* the hull boundary are included: an edge node
    sitting exactly on the outline of the deployment must be pinned safe
    even if it is not a hull corner, otherwise Definition 1 would label
    it unsafe merely for facing the void outside the network.
    Duplicate coordinates are collapsed to their first occurrence.
    """
    order: dict[tuple[float, float], int] = {}
    for index, p in enumerate(points):
        order.setdefault((p.x, p.y), index)
    unique = sorted(order.items())  # sorted by (x, y)
    if len(unique) <= 2:
        return [index for _, index in unique]

    indices = [index for _, index in unique]

    def half_hull(sequence: list[int]) -> list[int]:
        hull: list[int] = []
        for i in sequence:
            # Pop while the last three make a strict clockwise turn;
            # collinear (cross == 0) points are kept.
            while (
                len(hull) >= 2
                and _cross(
                    points[hull[-2]], points[hull[-1]], points[i]
                )
                < 0
            ):
                hull.pop()
            hull.append(i)
        return hull

    lower = half_hull(indices)
    upper = half_hull(indices[::-1])
    # Drop the last point of each half because it repeats the first of
    # the other half.
    return lower[:-1] + upper[:-1]


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Convex hull vertices in counter-clockwise order (collinear kept)."""
    return [points[i] for i in hull_indices(points)]


def _circumradius(a: Point, b: Point, c: Point) -> float:
    """Circumradius of triangle abc; ``inf`` for degenerate triangles."""
    la = b.distance_to(c)
    lb = a.distance_to(c)
    lc = a.distance_to(b)
    area2 = abs(_cross(a, b, c))  # twice the triangle area
    if area2 <= 1e-12:
        return math.inf
    return (la * lb * lc) / (2.0 * area2)


def alpha_shape_boundary(points: Sequence[Point], alpha: float) -> set[int]:
    """Indices of points on the alpha-shape boundary of the point set.

    The alpha shape keeps every Delaunay triangle whose circumradius is
    at most ``alpha``; boundary edges are those that belong to exactly
    one kept triangle.  With ``alpha`` equal to the communication radius
    this traces the outline a sensor field "sees" at its own hop scale,
    including concavities carved by large forbidden areas.

    Falls back to the convex hull when the input is too small or too
    degenerate for a Delaunay triangulation (e.g. collinear points).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(points) < 4:
        return set(hull_indices(points))

    trio = _delaunay()
    if trio is None:  # no scipy/numpy: convex-hull fallback (warned)
        return set(hull_indices(points))
    np, Delaunay, QhullError = trio

    coords = np.asarray([(p.x, p.y) for p in points], dtype=float)
    try:
        tri = Delaunay(coords)
    except (QhullError, ValueError):
        return set(hull_indices(points))

    edge_count: dict[tuple[int, int], int] = {}
    kept_any = False
    for ia, ib, ic in tri.simplices:
        r = _circumradius(points[ia], points[ib], points[ic])
        if r > alpha:
            continue
        kept_any = True
        for i, j in ((ia, ib), (ib, ic), (ic, ia)):
            key = (min(i, j), max(i, j))
            edge_count[key] = edge_count.get(key, 0) + 1

    if not kept_any:
        # Alpha smaller than every triangle: no interior at this scale;
        # treat the whole point set as boundary.
        return set(range(len(points)))

    boundary: set[int] = set()
    for (i, j), count in edge_count.items():
        if count == 1:
            boundary.add(i)
            boundary.add(j)
    # The convex-hull corners are always part of the network edge even
    # if the alpha filter dropped their incident skinny triangles.
    boundary.update(hull_indices(points))
    return boundary
