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
   of its first directed edge under the successor map: a face of the
   rotation.  The walk closes at its first return to the start node,
   and fails when the step budget runs out first (or, where the map
   is not a bijection, at a repeated directed edge).  Connected stuck
   nodes end up on the same cycle; each node is assigned the first
   boundary that contains it.

   With numpy the walks are not stepped:
   :func:`~repro.network.construct.face_orbits` builds every directed
   edge's successor at once and splits the map into its faces, giving
   each edge its position along its face.  The map sends the edges
   into a node onto the edges out of it, so a walk from ``s``
   returns to ``s`` one step before its face next reaches an edge out
   of ``s``: the walk takes ``k`` steps, the least face distance from
   its first edge to another out-edge of ``s`` (or a full turn back to
   the first edge), minus one.  It closes iff ``k`` is at most the
   budget minus one, and the boundary is ``s`` followed by the heads
   of the face's next ``k`` edges.  A failed walk thus costs the
   degree of ``s``, and a closed one the length of its boundary.  A
   successor column that is not a bijection (flagged rows can make
   one) is stepped by the walk instead, as it is without numpy.

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

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.geometry.angles import angle_of, first_hit_cw
from repro.network.construct import face_orbits, resolve_backend
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
    the hole into a degenerate triangle.  ``successors`` holds each
    directed edge's successor, or -1 where no walk has computed it yet:
    walks from different stuck nodes share stretches.  ``None`` when
    the walk degenerates: a repeated directed edge (trapped in a
    sub-cycle missing ``start``) or ``max_steps`` successors taken
    without returning.
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


_Walk = Callable[[int, int], "tuple[NodeId, ...] | None"]


def _orbit_walker(np, rotation: Rotation, orbits, max_steps: int) -> _Walk:
    """Every stuck row's walk, answered on the faces of ``orbits``
    (:func:`~repro.network.construct.face_orbits`): the walk from ``s``
    along ``first`` takes the least ``(position[e] - position[first] -
    1) mod size`` steps over the out-slots ``e`` of ``s`` on
    ``first``'s face (``first`` itself gives ``size - 1``)."""
    face, position, start, listing = orbits
    indptr = np.frombuffer(rotation.indptr, dtype=np.int64)
    stuck = np.frombuffer(rotation.stuck, dtype=np.int64)
    rows = np.flatnonzero(stuck >= 0)
    own = face[stuck[rows]]
    at = position[stuck[rows]]
    lo = start[own]
    size = start[own + 1] - lo
    # Every out-slot of the stuck rows, row after row.
    degree = indptr[rows + 1] - indptr[rows]
    offsets = np.cumsum(degree) - degree
    slots = np.arange(int(degree.sum())) + np.repeat(
        indptr[rows] - offsets, degree
    )
    home = (position[slots] - np.repeat(at + 1, degree)) % np.repeat(
        size, degree
    )
    # An out-slot on another face never brings the walk home.
    home[face[slots] != np.repeat(own, degree)] = face.shape[0]
    steps = np.minimum.reduceat(home, offsets)
    rims = dict(
        zip(
            rows.tolist(),
            zip(steps.tolist(), lo.tolist(), size.tolist(), at.tolist()),
        )
    )
    heads = np.frombuffer(rotation.head, dtype=np.int64)[listing]
    ids = rotation.ids

    def walk(start: int, first: int) -> tuple[NodeId, ...] | None:
        k, face_lo, face_size, first_at = rims[start]
        if k > max_steps - 1:
            return None
        begin = face_lo + first_at
        rim = heads[begin : face_lo + min(first_at + k, face_size)].tolist()
        if first_at + k > face_size:
            # The walk passes the face's last slot: wrap to its first.
            rim += heads[face_lo : begin + k - face_size].tolist()
        return (ids[start], *map(ids.__getitem__, rim))

    return walk


def _walker(graph: WasnGraph, rotation: Rotation, max_steps: int) -> _Walk:
    """The walk ``(start, first) -> boundary or None`` of each stuck
    row: on the face orbits where the core's construction backend
    resolves to numpy and the successor column is a bijection, else
    stepped by :func:`_trace`."""
    np = resolve_backend(
        graph.core.backend, "build_hole_boundaries (backend='numpy')"
    )
    if np is None:
        successors = [-1] * len(rotation.head)
    else:
        column, orbits = face_orbits(
            np,
            np.frombuffer(rotation.indptr, dtype=np.int64),
            np.frombuffer(rotation.head, dtype=np.int64),
            rotation.band,
            lambda u, e: _successor(graph, rotation, u, e),
        )
        if orbits is not None:
            return _orbit_walker(np, rotation, orbits, max_steps)
        successors = array("q", column.tobytes())
    return partial(_trace, graph, rotation, successors, max_steps=max_steps)


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
    """All detected hole boundaries, with per-node lookup.

    ``core`` is the topology core the boundaries were traced on (None
    when built by hand): every edge of every cycle is one of its
    edges, so a router over that core never checks them.
    """

    boundaries: tuple[tuple[NodeId, ...], ...]
    _by_node: dict[NodeId, int] = field(repr=False)
    core: object = field(default=None, compare=False, repr=False)

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
    walk = _walker(graph, rotation, max_steps)
    boundaries: list[tuple[NodeId, ...]] = []
    by_node: dict[NodeId, int] = {}
    for start, first in enumerate(rotation.stuck):
        if first < 0 or ids[start] in by_node:
            continue
        cycle = walk(start, first)
        if cycle is None:
            continue
        index = len(boundaries)
        boundaries.append(cycle)
        for node in cycle:
            by_node.setdefault(node, index)
    return HoleBoundarySet(
        boundaries=tuple(boundaries), _by_node=by_node, core=graph.core
    )
