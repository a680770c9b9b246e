"""BOUNDHOLE: hole boundary detection (Fang, Gao, Guibas — ref [5]).

Section 5: "within the interest area, boundary information [5] is
constructed for GF routings" — the GF baseline recovers from local
minima by walking precomputed hole boundaries instead of discovering
detours on the fly.  This module builds that information:

1. **TENT rule** — a node is a *potential stuck node* when the angular
   gap between two consecutive neighbours (sorted by angle) exceeds
   120°: packets for destinations inside such a gap cannot advance
   greedily.  (This is the standard local simplification of the exact
   TENT construction, which intersects perpendicular bisectors; the
   gap form is what BOUNDHOLE deployments actually compute.)
2. **Boundary walk** — from each stuck node, the hole boundary is
   traced with the right-hand rule.  The walk leaves along the
   clockwise edge of the node's widest gap; after that, the edge
   ``u -> v`` is followed by ``v``'s edge to the first neighbour
   clockwise from ``u``.  That successor is one lookup, ``u``'s cyclic
   predecessor in ``v``'s row of the rotation, so a walk is the orbit
   of its first directed edge under the successor map.  The orbit is
   cut at the first return to the start node (a closed boundary), at
   a repeated directed edge, or when the step budget runs out (both
   failures).  Connected stuck nodes end up on the same cycle; each
   node is assigned the first boundary that contains it.

Both steps read the graph's rotation system, each node's neighbours in
angular order, which the topology core builds once and caches
(:class:`~repro.network.rotation.Rotation`; Algorithm 2's quadrant
scan in :mod:`repro.core.shape` reads the same one).  TENT's verdict
and each stuck node's widest-gap edge are its ``stuck`` column; rows
its band contract flags (near-tied angles, coincident nodes, angles on
a quadrant axis) re-run the scalar ``first_hit_cw`` sweep at each
step through them.

The result is deliberately exposed through the tiny
:class:`~repro.routing.greedy.HoleBoundaries` protocol so the router
layer stays decoupled from the construction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.geometry.angles import angle_of, first_hit_cw
from repro.network.graph import WasnGraph
from repro.network.node import NodeId
from repro.network.rotation import Rotation, rotation_of

__all__ = ["HoleBoundarySet", "build_hole_boundaries", "tent_stuck_nodes"]


def _successor(graph: WasnGraph, rotation: Rotation, u: int, e: int) -> int:
    """The edge after ``e = u -> v``: from ``v`` to the first neighbour
    clockwise from ``u``."""
    head = rotation.head
    v = head[e]
    lo = rotation.indptr[v]
    hi = rotation.indptr[v + 1]
    if rotation.band[v]:
        ids = rotation.ids
        pv = graph.position(ids[v])
        w = first_hit_cw(
            pv,
            angle_of(pv, graph.position(ids[u])),
            graph.neighbors(ids[v]),
            graph.position,
            exclusive=True,
        )
        # Degenerate: no neighbour off v's position; bounce back.
        target = u if w is None else bisect_left(ids, w)
        return head.index(target, lo, hi)
    back = head.index(u, lo, hi)
    return back - 1 if back > lo else hi - 1


def _trace(
    graph: WasnGraph,
    rotation: Rotation,
    successors: list[int],
    start: int,
    first: int,
    max_steps: int,
) -> tuple[NodeId, ...] | None:
    """The closed walk from ``start`` along edge slot ``first``.

    ``first`` is the clockwise edge of the widest gap (the hole lies
    inside the gap).  Sweeping clockwise from the edge back to the
    previous node keeps the hole on a consistent side of the walk; a
    counter-clockwise sweep would fold the walk straight back away from
    the hole into a degenerate triangle.  ``successors`` memoises the
    successor of each directed edge (-1 until computed): walks from
    different stuck nodes share stretches.  ``None`` when the walk
    degenerates: a repeated directed edge (trapped in a sub-cycle
    missing ``start``) or ``max_steps`` successors taken without
    returning.
    """
    head = rotation.head
    u, e = start, first
    edges = [e]
    seen = {e}
    for _ in range(max_steps):
        v = head[e]
        if v == start:
            ids = rotation.ids
            # closed: drop the repeated start
            return (ids[start], *[ids[head[f]] for f in edges[:-1]])
        f = successors[e]
        if f < 0:
            f = successors[e] = _successor(graph, rotation, u, e)
        if f in seen:
            return None
        seen.add(f)
        edges.append(f)
        u, e = v, f
    return None


def tent_stuck_nodes(graph: WasnGraph) -> set[NodeId]:
    """Nodes with an angular neighbour gap exceeding 120° (TENT rule).

    Nodes with no neighbours are skipped (they are unreachable, not
    stuck); a single-neighbour node has a full 360° gap and qualifies.
    """
    rotation = rotation_of(graph)
    ids = rotation.ids
    return {ids[i] for i, slot in enumerate(rotation.stuck) if slot >= 0}


@dataclass(frozen=True)
class HoleBoundarySet:
    """All detected hole boundaries, with per-node lookup."""

    boundaries: tuple[tuple[NodeId, ...], ...]
    _by_node: dict[NodeId, int] = field(repr=False)

    def boundary_of(self, node: NodeId) -> tuple[NodeId, ...] | None:
        """The boundary cycle through ``node`` (or None)."""
        index = self._by_node.get(node)
        return self.boundaries[index] if index is not None else None

    def __len__(self) -> int:
        return len(self.boundaries)

    def nodes_on_boundaries(self) -> set[NodeId]:
        """Every node that lies on some traced boundary."""
        return set(self._by_node)

    def total_boundary_hops(self) -> int:
        """Total boundary edges — the message cost of the walks."""
        return sum(len(b) for b in self.boundaries)


def build_hole_boundaries(
    graph: WasnGraph, max_steps_factor: float = 4.0
) -> HoleBoundarySet:
    """Detect stuck nodes (TENT) and trace their hole boundaries.

    ``max_steps_factor`` bounds each walk at ``factor * |V|`` hops.
    Stuck nodes already assigned to a traced boundary are not re-walked
    (connected stuck nodes share their hole's rim), which keeps
    construction cost proportional to total boundary length — the
    quantity the construction-cost benchmark reports.
    """
    rotation = rotation_of(graph)
    ids = rotation.ids
    max_steps = max(16, int(max_steps_factor * len(graph)))
    successors = [-1] * len(rotation.head)
    boundaries: list[tuple[NodeId, ...]] = []
    by_node: dict[NodeId, int] = {}
    for start, first in enumerate(rotation.stuck):
        if first < 0 or ids[start] in by_node:
            continue
        cycle = _trace(graph, rotation, successors, start, first, max_steps)
        if cycle is None:
            continue
        index = len(boundaries)
        boundaries.append(cycle)
        for node in cycle:
            by_node.setdefault(node, index)
    return HoleBoundarySet(boundaries=tuple(boundaries), _by_node=by_node)
