"""Estimated shape information — Algorithm 2 and Theorem 2.

Each type-``i`` unsafe node ``u`` summarises the unsafe area beyond it
as a rectangle.  The paper (Section 3, detailed for type 1):

    "Rotate a ray from ``u`` scanning ``G_i(u)`` counter-clockwise.  We
    denote that ``u^(1)`` and ``u^(2)`` are the farthest nodes that can
    be reached on the first and the last greedy forwarding paths. ...
    the shape of unsafe area can simply be represented by ``E_i(u)``:
    ``[x_u : x_u(1), y_u : y_u(2)]``."

    (Algorithm 2 step 3:) "For an unsafe node, say type-``i`` unsafe,
    set ``u^(1) = u^(2) = u`` if ``N(u) ∩ Q_i(u) = ∅``.  Otherwise,
    ``u^(1) = v_1^(1)`` and ``u^(2) = v_2^(2)``, where ``v_1`` and
    ``v_2`` are the first and the last type-``i`` unsafe neighbors hit
    by a ray from ``u`` when scanning ``Q_i(u)`` in counter-clockwise
    order."

Generalisation to types 2-4 (the paper works type 1 only): the CCW
scan of ``Q_i`` starts at the quadrant's clockwise edge.  The *first*
chain therefore hugs one axis of the quadrant and the *last* chain the
other.  Whichever chain hugs the **horizontal** quadrant edge supplies
the x-extent of ``E_i(u)``; the chain hugging the **vertical** edge
supplies the y-extent.  For type 1 (scan starts at the east axis) the
first chain is horizontal-hugging, which reproduces the paper's
``[x_u : x_u(1), y_u : y_u(2)]`` exactly; for types 2 and 4 the roles
swap because the scan starts at a vertical edge.

The scan reads the topology's rotation system
(:class:`~repro.network.rotation.Rotation`, which BOUNDHOLE walks too):
on a row its band contract leaves unflagged, ``Q_i(u)`` is one arc of
``u``'s neighbours in angular order, already in the CCW scan order, so
``v_1`` and ``v_2`` are the arc's first and last heads.  A flagged row
(near-tied angles, a neighbour on a quadrant axis or at ``u``'s own
position) filters the quadrant by sign tests and sorts it with
:func:`~repro.geometry.angles.sort_ccw` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.safety import SafetyModel
from repro.core.zones import (
    ZONE_TYPES,
    ZoneType,
    forwarding_zone_contains,
    quadrant_start_angle,
)
from repro.geometry import Point, Rect
from repro.geometry.angles import sort_ccw
from repro.network.graph import WasnGraph
from repro.network.node import NodeId
from repro.network.rotation import rotation_of

__all__ = ["ShapeInfo", "ShapeModel", "compute_shapes"]


@dataclass(frozen=True, slots=True)
class ShapeInfo:
    """Per-node estimated shape record for one zone type.

    ``first_far`` is the paper's ``u^(1)`` (far node of the chain that
    the CCW scan hits first), ``last_far`` is ``u^(2)``.  ``rect`` is
    the estimated unsafe-area rectangle ``E_i(u)`` anchored at ``u``.
    """

    node: NodeId
    zone_type: ZoneType
    first_far: NodeId
    last_far: NodeId
    rect: Rect


# For these scan-start edges the *first* chain hugs the horizontal
# axis (so u^(1) provides the x-extent); for the others the roles swap.
_FIRST_CHAIN_IS_HORIZONTAL = {1: True, 2: False, 3: True, 4: False}


def _chain_sort_key(zone_type: ZoneType, p: Point) -> float:
    """Strictly increasing along any type-``i`` forwarding step.

    A successor ``v ∈ Q_i(u)`` with ``v != u`` strictly increases this
    key, so processing unsafe nodes in *descending* key order
    guarantees each node's scan targets are already resolved — an
    iterative stand-in for the paper's "propagate along the chain"
    recursion.
    """
    if zone_type == 1:
        return p.x + p.y
    if zone_type == 2:
        return p.y - p.x
    if zone_type == 3:
        return -(p.x + p.y)
    return p.x - p.y


@dataclass(frozen=True)
class ShapeModel:
    """Estimated shape information for every unsafe node and type."""

    graph: WasnGraph
    safety: SafetyModel
    shapes: dict[ZoneType, dict[NodeId, ShapeInfo]]

    def shape(self, u: NodeId, zone_type: ZoneType) -> ShapeInfo | None:
        """The shape record of ``u`` for ``zone_type`` (None when safe)."""
        return self.shapes[zone_type].get(u)

    def estimated_area(self, u: NodeId, zone_type: ZoneType) -> Rect | None:
        """``E_i(u)`` — the estimated unsafe-area rectangle at ``u``."""
        info = self.shapes[zone_type].get(u)
        return info.rect if info else None

    def far_corner(self, u: NodeId, zone_type: ZoneType) -> Point | None:
        """The corner ``(x_u(1), y_u(2))`` that the divider ray passes
        through (Section 4: the critical/forbidden split).

        Equivalently: the corner of ``E_i(u)`` diagonally opposite the
        anchor ``u``, i.e. the one pointing *into* the forwarding
        quadrant — a formulation that works for any shape mode.
        """
        info = self.shapes[zone_type].get(u)
        if info is None:
            return None
        rect = info.rect
        if zone_type == 1:
            return Point(rect.x_max, rect.y_max)
        if zone_type == 2:
            return Point(rect.x_min, rect.y_max)
        if zone_type == 3:
            return Point(rect.x_min, rect.y_min)
        return Point(rect.x_max, rect.y_min)

    def greedy_region(self, u: NodeId, zone_type: ZoneType) -> set[NodeId]:
        """``G_i(u)`` — unsafe nodes reachable from ``u`` by type-``i``
        forwarding through unsafe nodes (used for validation; Theorem 2
        claims ``E_i(u)`` estimates this region's extent)."""
        if self.safety.is_safe(u, zone_type):
            return set()
        region = {u}
        frontier = [u]
        while frontier:
            w = frontier.pop()
            pw = self.graph.position(w)
            for v in self.graph.neighbors(w):
                if v in region:
                    continue
                if not forwarding_zone_contains(
                    pw, zone_type, self.graph.position(v)
                ):
                    continue
                # All quadrant neighbours of an unsafe node are unsafe
                # (Definition 1), so the region needs no safety test.
                region.add(v)
                frontier.append(v)
        return region


def compute_shapes(safety: SafetyModel, mode: str = "chain") -> ShapeModel:
    """Estimated shape information for every unsafe node of every type.

    ``mode="chain"`` (default) is the paper's Algorithm 2 step 3: the
    rectangle spans the far nodes of the *first* and *last* scan
    chains.  Nodes are processed in descending chain order (see
    :func:`_chain_sort_key`) so that the far-node references
    ``u^(1) = v_1^(1)`` and ``u^(2) = v_2^(2)`` are resolved before
    they are needed.  Nodes at exactly coincident positions would form
    a two-cycle in the chain relation; the tie falls back to the
    neighbour node itself, keeping the construction total.

    ``mode="exact"`` realises the paper's future-work item "a further
    study on more accurate information for unsafe areas": the
    rectangle becomes the exact bounding box of the greedy region
    ``G_i(u)``, computed by the same chain-order pass (box(u) = u's
    position joined with the boxes of its unsafe quadrant neighbours —
    the extra cost over the chain mode is only the per-node box join,
    still one linear pass).  Theorem 2's containment then holds by
    construction instead of approximately.
    """
    if mode not in ("chain", "exact"):
        raise ValueError(
            f"unknown shape mode {mode!r}; expected 'chain' or 'exact'"
        )
    graph = safety.graph
    rotation = rotation_of(graph)
    ids, head, band = rotation.ids, rotation.head, rotation.band
    arcs, row_end = rotation.arcs, rotation.indptr
    # Positions come from the core's columns: a Point is built for
    # each unsafe node only.
    xs, ys = graph.core.xs, graph.core.ys
    index_of = {u: i for i, u in enumerate(ids)}
    shapes: dict[ZoneType, dict[NodeId, ShapeInfo]] = {}
    for zone_type in ZONE_TYPES:
        per_node: dict[NodeId, ShapeInfo] = {}
        unsafe = safety.unsafe_nodes(zone_type)
        start_angle = quadrant_start_angle(zone_type)
        arc = zone_type - 1
        at = {u: Point(xs[index_of[u]], ys[index_of[u]]) for u in unsafe}
        ordered = sorted(
            unsafe,
            key=lambda u: (-_chain_sort_key(zone_type, at[u]), u),
        )
        for u in ordered:
            pu = at[u]
            i = index_of[u]
            if band[i] or mode == "exact":
                in_quadrant = [
                    v
                    for v in graph.neighbors(u)
                    if forwarding_zone_contains(
                        pu, zone_type, graph.position(v)
                    )
                ]
            if band[i]:
                # A flagged row: the scan is the sorted quadrant filter.
                scan = sort_ccw(pu, start_angle, in_quadrant, graph.position)
                ends = (scan[0], scan[-1]) if scan else None
            else:
                # Q_i(u) is this arc of u's rotation, in scan order.
                lo = arcs[4 * i + arc]
                hi = arcs[4 * i + arc + 1] if arc < 3 else row_end[i + 1]
                ends = (ids[head[lo]], ids[head[hi - 1]]) if lo < hi else None
            if ends is None:
                first_far = last_far = u
            else:
                v1, v2 = ends
                # v's record exists unless v coincides with u (degenerate
                # duplicate-position tie) — fall back to v itself then.
                v1_info = per_node.get(v1)
                v2_info = per_node.get(v2)
                first_far = v1_info.first_far if v1_info else v1
                last_far = v2_info.last_far if v2_info else v2

            if mode == "exact":
                # Bounding box of G_i(u): own position joined with the
                # (already computed) boxes of all unsafe quadrant
                # successors.
                rect = Rect.from_corners(pu, pu)
                for v in in_quadrant:
                    v_info = per_node.get(v)
                    if v_info is not None:
                        rect = rect.union_bounds(v_info.rect)
                    else:
                        rect = rect.union_bounds(
                            Rect.from_corners(
                                graph.position(v), graph.position(v)
                            )
                        )
            elif _FIRST_CHAIN_IS_HORIZONTAL[zone_type]:
                corner = Point(
                    xs[index_of[first_far]], ys[index_of[last_far]]
                )
                rect = Rect.from_corners(pu, corner)
            else:
                corner = Point(
                    xs[index_of[last_far]], ys[index_of[first_far]]
                )
                rect = Rect.from_corners(pu, corner)
            per_node[u] = ShapeInfo(
                node=u,
                zone_type=zone_type,
                first_far=first_far,
                last_far=last_far,
                rect=rect,
            )
        shapes[zone_type] = per_node
    return ShapeModel(graph=graph, safety=safety, shapes=shapes)
