"""The rotation system of a topology: each node's neighbours by angle.

BOUNDHOLE's TENT rule and rim walks (paper ref [5]) and Algorithm 2's
counter-clockwise scan of a forwarding quadrant are sweeps of one
structure: every node's neighbours in angular order.  :class:`Rotation`
holds it as columns, computed once per topology core
(:meth:`repro.network.core.TopologyCore.rotation`, cached and shared
with the core's flag variants); :func:`rotation_of` reads a graph's.

:func:`build_rotation` is the scalar reference and the path without
numpy; :func:`repro.network.construct.rotation_columns` is the numpy
build, which re-decides every row near a decision with
:func:`rotation_row` and so yields the same columns bit for bit.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.geometry.angles import ccw_angle_distance, normalize_angle
from repro.network.node import NodeId

__all__ = ["Rotation", "build_rotation", "rotation_of", "rotation_row"]

# Defect band of the rotation: rows with a gap or an angle this close
# to a decision are flagged and decided by the scalar expressions.
_ROTATION_BAND = 1e-9

# TENT threshold: 120 degrees.
TENT_GAP = 2.0 * math.pi / 3.0

_HALF_PI = math.pi / 2
_THREE_HALF_PI = 3 * math.pi / 2
#: The quadrant axes inside ``(0, 2*pi)``, as
#: :func:`repro.core.zones.quadrant_start_angle` spells them.
AXES = (_HALF_PI, math.pi, _THREE_HALF_PI)


@dataclass(frozen=True, slots=True)
class Rotation:
    """One topology's rotation system, with TENT's and the quadrants'
    verdicts.

    Node ``i`` is ``ids[i]`` (ids ascending).  ``head[indptr[i] :
    indptr[i + 1]]`` holds its neighbour indices stably sorted by
    :func:`~repro.geometry.angles.angle_of` (exact ties keep adjacency
    row order); slot ``e`` of that span is the directed edge ``i ->
    head[e]``.

    ``arcs[4 * i + k - 1]`` is the slot where quadrant ``k``'s arc of
    row ``i`` starts: the first slot whose angle is not below
    :func:`~repro.core.zones.quadrant_start_angle` ``(k)``.  The arc
    ends where quadrant ``k + 1``'s starts, or at the row's end for
    ``k = 4``.

    ``stuck[i]`` is the slot of the clockwise edge of row ``i``'s widest
    gap when the TENT rule marks node ``i`` (a gap wider than 120°, or
    a single neighbour), else -1: the first strictly largest gap in
    rotation order, or the only edge of a single-neighbour node.

    **Band contract.** ``band[i]`` is 1 when row ``i`` has

    * a counter-clockwise gap between cyclically adjacent sorted angles
      that does not exceed ``_ROTATION_BAND`` (1e-9).  That flags
      near-tied angles, NaN angles (no comparison with NaN holds) and
      single neighbours (whose gap to themselves is 0) alike; or
    * an angle within the band of a quadrant axis (0, pi/2, pi, 3pi/2,
      2pi).  A neighbour at node ``i``'s exact position has angle 0 or
      pi, so it is flagged here.

    An unflagged row decides both sweeps from the columns alone:

    * the first neighbour clockwise from neighbour ``u`` is ``u``'s
      cyclic predecessor, the node ``first_hit_cw(..., exclusive=True)``
      picks, because every other offset differs by far more than
      rounding;
    * quadrant ``k``'s arc holds exactly the neighbours that
      :func:`~repro.core.zones.forwarding_zone_contains` places in
      ``Q_k``, already in the counter-clockwise order that
      :func:`~repro.geometry.angles.sort_ccw` gives from the quadrant's
      start angle.

    Flagged rows are decided by those scalar expressions instead.
    """

    ids: tuple[NodeId, ...]
    indptr: Sequence[int]
    head: array
    band: bytes
    arcs: array
    stuck: array


def _near_axis(angles: list[float], quarters: tuple[int, ...]) -> bool:
    """Whether some angle of a sorted row lies within the band of an
    axis; ``quarters`` are the bisection points of :data:`AXES`."""
    if angles[0] <= _ROTATION_BAND or math.tau - angles[-1] <= _ROTATION_BAND:
        return True
    last = len(angles) - 1
    for q, axis in zip(quarters, AXES):
        # The nearest angles to the axis sit on either side of its
        # bisection point.
        if q and axis - angles[q - 1] <= _ROTATION_BAND:
            return True
        if q <= last and angles[q] - axis <= _ROTATION_BAND:
            return True
    return False


def rotation_row(
    i: int, lo: int, row: Sequence[int], xs: Sequence[float], ys: Sequence[float]
) -> tuple[list[int], int, tuple[int, int, int, int], int]:
    """Row ``i``'s columns: its heads, band flag, arc starts and stuck
    slot.  ``row`` is the node's neighbour indices in adjacency order,
    starting at slot ``lo``; it must not be empty."""
    xi = xs[i]
    yi = ys[i]
    atan2 = math.atan2
    # angle_of(L(i), L(v)), expression for expression.
    unsorted = [normalize_angle(atan2(ys[v] - yi, xs[v] - xi)) for v in row]
    ranks = sorted(range(len(row)), key=unsorted.__getitem__)
    angles = [unsorted[r] for r in ranks]
    gaps = list(map(ccw_angle_distance, angles, angles[1:] + angles[:1]))
    quarters = tuple(bisect_left(angles, axis) for axis in AXES)
    clears_band = _ROTATION_BAND.__lt__
    flag = not all(map(clears_band, gaps)) or _near_axis(angles, quarters)
    worst = max(0.0, *gaps)
    if len(row) == 1:
        stuck = lo
    elif worst > TENT_GAP:
        stuck = lo + gaps.index(worst)
    else:
        stuck = -1
    arcs = (lo, lo + quarters[0], lo + quarters[1], lo + quarters[2])
    return [row[r] for r in ranks], int(flag), arcs, stuck


def build_rotation(
    ids: tuple[NodeId, ...],
    indptr: Sequence[int],
    indices: Sequence[int],
    xs: Sequence[float],
    ys: Sequence[float],
) -> Rotation:
    """The scalar build: :func:`rotation_row` over every row of a CSR."""
    n = len(ids)
    head = array("q")
    band = bytearray(n)
    arcs = array("q")
    stuck = array("q", [-1]) * n
    for i in range(n):
        lo = indptr[i]
        hi = indptr[i + 1]
        if lo == hi:
            arcs.extend((lo, lo, lo, lo))
            continue
        row_head, band[i], row_arcs, stuck[i] = rotation_row(
            i, lo, indices[lo:hi], xs, ys
        )
        head.extend(row_head)
        arcs.extend(row_arcs)
    return Rotation(ids, indptr, head, bytes(band), arcs, stuck)


def rotation_of(graph) -> Rotation:
    """The rotation of ``graph``: its core's cached one."""
    return graph.core.rotation()
