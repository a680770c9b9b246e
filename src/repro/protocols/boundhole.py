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
   clockwise from ``u``.  On the rotation system of the graph (each
   node's neighbours in angular order) that successor is one lookup,
   ``u``'s cyclic predecessor in ``v``'s rotation (rows with near-tied
   angles or coincident nodes re-run the scalar sweep), so a walk is
   the orbit of its first directed edge under the successor map.  The
   orbit is cut at the first return to the start node (a closed
   boundary), at a repeated directed edge, or when the step budget
   runs out (both failures).  Connected stuck nodes end up on the same
   cycle; each node is assigned the first boundary that contains it.

The result is deliberately exposed through the tiny
:class:`~repro.routing.greedy.HoleBoundaries` protocol so the router
layer stays decoupled from the construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.geometry.angles import (
    angle_of,
    ccw_angle_distance,
    first_hit_cw,
    normalize_angle,
)
from repro.network.graph import WasnGraph
from repro.network.node import NodeId

__all__ = ["HoleBoundarySet", "build_hole_boundaries", "tent_stuck_nodes"]

# TENT threshold: 120 degrees.
_TENT_GAP = 2.0 * math.pi / 3.0

# Defect band of the rotation system: rows with a gap inside it are
# decided by the scalar sweep (see _Rotation).
_ROTATION_BAND = 1e-9


class _Rotation:
    """One graph's rotation system, with TENT's verdicts and rim walks.

    Node ``i`` is ``ids[i]`` (ids ascending).  ``head[indptr[i] :
    indptr[i + 1]]`` holds its neighbour indices stably sorted by
    :func:`~repro.geometry.angles.angle_of` (exact ties keep adjacency
    row order); slot ``e`` of that span is the directed edge ``i ->
    head[e]``.  Graphs with a columnar core are read through its CSR
    columns; a hand-built graph with unsorted rows has none and is read
    through ``graph.neighbors``.

    **Band contract.** ``ambiguous[i]`` is 1 unless every
    counter-clockwise gap between cyclically adjacent sorted angles of
    row ``i`` exceeds ``_ROTATION_BAND``.  That flags near-tied angles,
    NaN angles (no comparison with NaN holds) and single neighbours
    (whose gap to themselves is 0) alike.  A row holding a neighbour at
    node ``i``'s exact position is flagged too.  In an unflagged row the
    first neighbour clockwise from neighbour ``u`` is ``u``'s cyclic
    predecessor, the node ``first_hit_cw(..., exclusive=True)`` picks,
    because every other offset differs by far more than rounding.
    Flagged rows are decided by that sweep.

    ``stuck`` maps each node the TENT rule marks, in ascending order,
    to the slot of the clockwise edge of its widest gap: the first
    strictly largest gap in rotation order, or the only edge of a
    single-neighbour node.
    """

    def __init__(self, graph: WasnGraph) -> None:
        try:
            core = graph.core
        except ValueError:
            ids = tuple(graph.node_ids)
            index_of = {u: i for i, u in enumerate(ids)}
            indptr = [0]
            indices: list[int] = []
            for u in ids:
                indices.extend([index_of[v] for v in graph.neighbors(u)])
                indptr.append(len(indices))
            positions = [graph.position(u) for u in ids]
            xs = [p.x for p in positions]
            ys = [p.y for p in positions]
        else:
            ids, indptr, indices = core.ids, core.indptr, core.indices
            xs = list(core.xs)
            ys = list(core.ys)
        atan2 = math.atan2
        clears_band = _ROTATION_BAND.__lt__
        head: list[int] = []
        ambiguous = bytearray(len(ids))
        stuck: dict[int, int] = {}
        for i in range(len(ids)):
            lo = indptr[i]
            row = indices[lo : indptr[i + 1]]
            if not row:
                continue
            xi = xs[i]
            yi = ys[i]
            # angle_of(L(i), L(v)), expression for expression.
            unsorted = [
                normalize_angle(atan2(ys[v] - yi, xs[v] - xi)) for v in row
            ]
            ranks = sorted(range(len(row)), key=unsorted.__getitem__)
            angles = [unsorted[r] for r in ranks]
            head.extend([row[r] for r in ranks])
            gaps = list(
                map(ccw_angle_distance, angles, angles[1:] + angles[:1])
            )
            if not all(map(clears_band, gaps)):
                ambiguous[i] = 1
            elif (0.0 in angles or math.pi in angles) and any(
                xs[v] == xi and ys[v] == yi for v in row
            ):
                # atan2(+-0, +-0) normalises to 0 or pi, so only rows
                # holding one of those angles can hide a coincident node.
                ambiguous[i] = 1
            worst = max(0.0, *gaps)
            if len(row) == 1:
                stuck[i] = lo
            elif worst > _TENT_GAP:
                stuck[i] = lo + gaps.index(worst)
        self.ids = ids
        self.indptr = indptr
        self.head = head
        self.ambiguous = ambiguous
        self.stuck = stuck
        self._graph = graph
        # Successor of each directed edge, computed on first use and
        # memoised: walks from different stuck nodes share stretches.
        self._next = [-1] * len(head)

    def _successor(self, u: int, e: int) -> int:
        """The edge after ``e = u -> v``: from ``v`` to the first
        neighbour clockwise from ``u``."""
        head = self.head
        v = head[e]
        lo = self.indptr[v]
        hi = self.indptr[v + 1]
        if self.ambiguous[v]:
            graph = self._graph
            ids = self.ids
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

    def trace(
        self, start: int, first: int, max_steps: int
    ) -> tuple[NodeId, ...] | None:
        """The closed walk from ``start`` along edge slot ``first``.

        ``first`` is the clockwise edge of the widest gap (the hole
        lies inside the gap).  Sweeping clockwise from the edge back
        to the previous node keeps the hole on a consistent side of the
        walk; a counter-clockwise sweep would fold the walk straight
        back away from the hole into a degenerate triangle.  ``None``
        when the walk degenerates: a repeated directed edge (trapped in
        a sub-cycle missing ``start``) or ``max_steps`` successors taken
        without returning.
        """
        head = self.head
        successors = self._next
        u, e = start, first
        edges = [e]
        seen = {e}
        for _ in range(max_steps):
            v = head[e]
            if v == start:
                ids = self.ids
                # closed: drop the repeated start
                return (ids[start], *[ids[head[f]] for f in edges[:-1]])
            f = successors[e]
            if f < 0:
                f = successors[e] = self._successor(u, e)
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
    rotation = _Rotation(graph)
    return {rotation.ids[i] for i in rotation.stuck}


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
    rotation = _Rotation(graph)
    ids = rotation.ids
    max_steps = max(16, int(max_steps_factor * len(graph)))
    boundaries: list[tuple[NodeId, ...]] = []
    by_node: dict[NodeId, int] = {}
    for start, first in rotation.stuck.items():
        if ids[start] in by_node:
            continue
        cycle = rotation.trace(start, first, max_steps)
        if cycle is None:
            continue
        index = len(boundaries)
        boundaries.append(cycle)
        for node in cycle:
            by_node.setdefault(node, index)
    return HoleBoundarySet(boundaries=tuple(boundaries), _by_node=by_node)
