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

The result is Algorithm 2's per-node table itself, as columns
(:class:`ShapeModel`): each unsafe node's two far nodes and the far
corner of ``E_i(u)``.  Records are built only when a reader asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, neg, sub

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

# The far corner of E_i(u), the one pointing into Q_i, takes these of
# the rectangle's x and y bounds.
_FAR_X = {1: max, 2: min, 3: min, 4: max}
_FAR_Y = {1: max, 2: max, 3: min, 4: min}


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
    """Estimated shape information for every unsafe node and type.

    Algorithm 2's table as columns in core index order, one list per
    zone type ``t``: ``first_far[t][i]`` and ``last_far[t][i]`` are the
    core indices of node ``i``'s ``u^(1)`` and ``u^(2)`` (-1 where it
    is type-``t`` safe), and ``(cx[t][i], cy[t][i])`` is the far corner
    of ``E_t(u)``, diagonally opposite the anchor ``u``.  ``order[t]``
    lists the type-``t`` unsafe indices in the order the construction
    resolved them.

    The readers build a :class:`ShapeInfo`, ``Rect`` or ``Point`` only
    when asked.  ``shapes`` is the record view of every column,
    ``{t: {u: ShapeInfo}}`` in construction order, built on first
    access.
    """

    graph: WasnGraph
    safety: SafetyModel
    first_far: dict[ZoneType, list[int]]
    last_far: dict[ZoneType, list[int]]
    cx: dict[ZoneType, list[float]]
    cy: dict[ZoneType, list[float]]
    order: dict[ZoneType, list[int]]

    def _index(self, u: NodeId, zone_type: ZoneType) -> int:
        """``u``'s core index when it has a type-``i`` record, else -1."""
        core = self.graph.core
        if u not in core:
            return -1
        i = core.index_of(u)
        return i if self.first_far[zone_type][i] >= 0 else -1

    def _rect(self, i: int, zone_type: ZoneType) -> Rect:
        # u sits at the anchor corner, so the far corner fixes E_i(u).
        core = self.graph.core
        return Rect.from_corners(
            Point(core.xs[i], core.ys[i]),
            Point(self.cx[zone_type][i], self.cy[zone_type][i]),
        )

    def _info(self, i: int, zone_type: ZoneType) -> ShapeInfo:
        ids = self.graph.core.ids
        return ShapeInfo(
            node=ids[i],
            zone_type=zone_type,
            first_far=ids[self.first_far[zone_type][i]],
            last_far=ids[self.last_far[zone_type][i]],
            rect=self._rect(i, zone_type),
        )

    @cached_property
    def shapes(self) -> dict[ZoneType, dict[NodeId, ShapeInfo]]:
        """Every record, ``{t: {u: ShapeInfo}}``, in construction order."""
        ids = self.graph.core.ids
        return {
            t: {ids[i]: self._info(i, t) for i in self.order[t]}
            for t in ZONE_TYPES
        }

    def shape(self, u: NodeId, zone_type: ZoneType) -> ShapeInfo | None:
        """The shape record of ``u`` for ``zone_type`` (None when safe)."""
        i = self._index(u, zone_type)
        return self._info(i, zone_type) if i >= 0 else None

    def estimated_area(self, u: NodeId, zone_type: ZoneType) -> Rect | None:
        """``E_i(u)`` — the estimated unsafe-area rectangle at ``u``."""
        i = self._index(u, zone_type)
        return self._rect(i, zone_type) if i >= 0 else None

    def areas_near(self, u: NodeId) -> list[Rect]:
        """``E_t(w)`` for ``w`` = ``u`` and each neighbour of ``u``, where
        ``w`` is type-``t`` unsafe: types ascending, and per type ``u``
        first, then its neighbours in row order."""
        core = self.graph.core
        i = core.index_of(u)
        near = [i, *core.indices[core.indptr[i] : core.indptr[i + 1]]]
        return [
            self._rect(j, t)
            for t in ZONE_TYPES
            for j in near
            if self.first_far[t][j] >= 0
        ]

    def far_corner(self, u: NodeId, zone_type: ZoneType) -> Point | None:
        """The corner ``(x_u(1), y_u(2))`` that the divider ray passes
        through (Section 4: the critical/forbidden split).

        Equivalently: the corner of ``E_i(u)`` diagonally opposite the
        anchor ``u``, i.e. the one pointing *into* the forwarding
        quadrant — a formulation that works for any shape mode.
        """
        i = self._index(u, zone_type)
        if i < 0:
            return None
        return Point(self.cx[zone_type][i], self.cy[zone_type][i])

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

    Both modes fill :class:`ShapeModel`'s columns and build no record.
    """
    if mode not in ("chain", "exact"):
        raise ValueError(
            f"unknown shape mode {mode!r}; expected 'chain' or 'exact'"
        )
    exact = mode == "exact"
    graph = safety.graph
    rotation = rotation_of(graph)
    head, band = rotation.head, rotation.band
    arcs, row_end = rotation.arcs, rotation.indptr
    indices = graph.core.indices
    xs = list(graph.core.xs)
    ys = list(graph.core.ys)
    n = len(xs)

    def point_of(i: int) -> Point:
        return Point(xs[i], ys[i])

    # The chain keys, negated: a stable ascending sort of the ascending
    # unsafe indices gives the (-key, id) order.
    sums = list(map(add, xs, ys))
    diffs = list(map(sub, xs, ys))
    negated_keys = {
        1: list(map(neg, sums)),
        2: diffs,
        3: sums,
        4: list(map(neg, diffs)),
    }
    first_far, last_far, cx, cy, order = {}, {}, {}, {}, {}
    for zone_type in ZONE_TYPES:
        ff = [-1] * n
        lf = [-1] * n
        fx = [0.0] * n
        fy = [0.0] * n
        ordered = sorted(
            safety.unsafe_indices(zone_type),
            key=negated_keys[zone_type].__getitem__,
        )
        start_angle = quadrant_start_angle(zone_type)
        horizontal = _FIRST_CHAIN_IS_HORIZONTAL[zone_type]
        far_x = _FAR_X[zone_type]
        far_y = _FAR_Y[zone_type]
        # Q_i(u) is the arc of row i's rotation from starts[i] to ends[i].
        arc = zone_type - 1
        starts = arcs[arc::4]
        ends = arcs[arc + 1 :: 4] if arc < 3 else row_end[1:]
        for i in ordered:
            xu = xs[i]
            yu = ys[i]
            flagged = band[i]
            if flagged or exact:
                pu = Point(xu, yu)
                in_quadrant = [
                    v
                    for v in indices[row_end[i] : row_end[i + 1]]
                    if forwarding_zone_contains(pu, zone_type, point_of(v))
                ]
            if flagged:
                # A flagged row: the scan is the sorted quadrant filter.
                scan = sort_ccw(pu, start_angle, in_quadrant, point_of)
                v1, v2 = (scan[0], scan[-1]) if scan else (-1, -1)
            else:
                # The arc's first and last heads, in scan order.
                lo = starts[i]
                hi = ends[i]
                v1, v2 = (head[lo], head[hi - 1]) if lo < hi else (-1, -1)
            if v1 < 0:
                first = last = i
            else:
                # Follow v's far node once v has its own.  v is unsafe,
                # but one whose chain key equals u's (a coincident node,
                # or a key that rounds equal) can come after u — fall
                # back to v itself then.
                first = ff[v1]
                if first < 0:
                    first = v1
                last = lf[v2]
                if last < 0:
                    last = v2
            ff[i] = first
            lf[i] = last
            if exact:
                # Bounding box of G_i(u): u's position joined with the
                # (already computed) boxes of its unsafe quadrant
                # successors, or their positions, as Rect.union_bounds
                # joins them.  Only the far side moves.
                bx = xu
                by = yu
                for v in in_quadrant:
                    if ff[v] >= 0:
                        bx = far_x(bx, fx[v])
                        by = far_y(by, fy[v])
                    else:
                        bx = far_x(bx, xs[v])
                        by = far_y(by, ys[v])
                fx[i] = bx
                fy[i] = by
                continue
            if horizontal:
                x = xs[first]
                y = ys[last]
            else:
                x = xs[last]
                y = ys[first]
            # The far corner of Rect.from_corners(u, (x, y)).
            fx[i] = far_x(xu, x)
            fy[i] = far_y(yu, y)
        first_far[zone_type] = ff
        last_far[zone_type] = lf
        cx[zone_type] = fx
        cy[zone_type] = fy
        order[zone_type] = ordered
    return ShapeModel(
        graph=graph,
        safety=safety,
        first_far=first_far,
        last_far=last_far,
        cx=cx,
        cy=cy,
        order=order,
    )
