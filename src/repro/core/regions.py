"""Critical and forbidden regions — contribution (a) of the paper.

    "Considering the relative locations of the destination and unsafe
    areas, the whole forwarding zone is divided into the critical and
    forbidden regions. ... According to ``E_i(v) : [x_v : x_v(1), y_v :
    y_v(2)]``, ``Q_i(v)`` is divided by the ray ``(x_v, y_v)(x_v(1),
    y_v(2))`` into two parts.  The region with ``d`` is called critical
    region and the other is called forbidden region. ... The access of
    forbidden region will be avoided when the destination is inside the
    critical region."  (Sections 1 and 4.)

The divider is the ray from the unsafe node ``v`` through the far
corner of its estimated rectangle.  Which side a point falls on is a
single cross-product sign; the routing layer uses three verdicts:

* the **side** of the destination (picks the hand rule: go around the
  estimated rectangle on the destination's side);
* whether a **candidate** successor sits in the forbidden region while
  the destination sits in the critical one (then the candidate is
  deprioritised — the "superseding rule" of Algorithm 3 step 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.shape import ShapeModel
from repro.core.zones import ZoneType, forwarding_zone_contains
from repro.geometry import Point
from repro.network.node import NodeId

__all__ = ["Hand", "RegionSplit", "region_split_for"]


class Hand(Enum):
    """Which hand rule a detour should commit to.

    ``RIGHT`` is the paper's counter-clockwise ray rotation; ``LEFT``
    the clockwise one.  Algorithm 3: "once a certain hand-rule is
    applied, the routing will keep using the same hand-rule until it
    escapes from the unsafe area" — the enum value travels with the
    packet to enforce that.
    """

    RIGHT = "right"  # counter-clockwise sweep
    LEFT = "left"  # clockwise sweep

    def flipped(self) -> "Hand":
        """The opposite hand."""
        return Hand.LEFT if self is Hand.RIGHT else Hand.RIGHT


@dataclass(frozen=True, slots=True)
class RegionSplit:
    """The critical/forbidden split induced by one unsafe neighbour.

    ``anchor`` is the unsafe node ``v``; ``corner`` the far corner of
    ``E_i(v)``; ``zone_type`` the type of the unsafe area.  The
    destination's side of the divider ray is cached in
    ``destination_side`` (+1 = counter-clockwise side, -1 = clockwise
    side, 0 = on the ray).
    """

    anchor: NodeId
    anchor_position: Point
    corner: Point
    zone_type: ZoneType
    destination_side: int

    def side_of(self, p: Point) -> int:
        """Sign of ``p`` relative to the divider ray (cross product)."""
        return _side(self.anchor_position, self.corner, p)

    def in_forbidden_region(self, p: Point) -> bool:
        """Is ``p`` in the forbidden region of this unsafe area?

        Only points inside ``Q_i(v)`` are part of either region; the
        forbidden region is the side of the divider *away* from the
        destination.  When the destination sits exactly on the divider
        (side 0) nothing is forbidden — there is no "other" side to
        avoid.
        """
        if self.destination_side == 0:
            return False
        if not forwarding_zone_contains(
            self.anchor_position, self.zone_type, p
        ):
            return False
        return self.side_of(p) == -self.destination_side

    def preferred_hand(self) -> Hand:
        """The hand rule that goes around the rectangle on ``d``'s side.

        The right-hand rule rotates rays counter-clockwise, walking the
        detour onto the counter-clockwise side of the divider; so a
        destination on that side (+1) chooses RIGHT, the other side
        LEFT.  A destination exactly on the divider defaults to RIGHT
        (the paper's base rule is the right-hand one).
        """
        return Hand.LEFT if self.destination_side < 0 else Hand.RIGHT


def _side(origin: Point, along: Point, p: Point) -> int:
    cross = (along - origin).cross(p - origin)
    if cross > 1e-12:
        return 1
    if cross < -1e-12:
        return -1
    return 0


def region_split_for(
    shapes: ShapeModel,
    unsafe_neighbor: NodeId,
    zone_type: ZoneType,
    destination: Point,
) -> RegionSplit | None:
    """Build the critical/forbidden split for one unsafe neighbour.

    Returns ``None`` when the neighbour carries no shape record for the
    type (i.e. it is safe in that type) or when its estimated rectangle
    is degenerate (a stuck node with an empty quadrant — a point-sized
    rectangle has no meaningful divider).
    """
    corner = shapes.far_corner(unsafe_neighbor, zone_type)
    anchor_position = shapes.graph.position(unsafe_neighbor)
    if corner is None or corner == anchor_position:
        return None
    return RegionSplit(
        anchor=unsafe_neighbor,
        anchor_position=anchor_position,
        corner=corner,
        zone_type=zone_type,
        destination_side=_side(anchor_position, corner, destination),
    )
