"""GF: geographic greedy forwarding with perimeter recovery.

The baseline of Section 5.  Greedy mode forwards to the neighbour
closest to the destination; at a local minimum the packet enters a
perimeter phase.  Two recovery strategies are provided:

* ``"face"`` — GPSR/GFG right-hand-rule face routing on a planarized
  subgraph (Gabriel graph by default), with the standard face-change
  test on the stuck-node-to-destination line and the traversed-first-
  edge-twice drop rule (destination unreachable);
* ``"boundhole"`` — follow a precomputed hole boundary (the paper's
  Section 5 gives GF routings "boundary information [5]", i.e.
  BOUNDHOLE, Fang et al.).  The boundary object is produced by
  :mod:`repro.protocols.boundhole`; nodes not on any boundary fall back
  to face routing.

Both exit recovery as soon as the packet reaches a node closer to the
destination than the point where it got stuck.
"""

from __future__ import annotations

from typing import Protocol

from repro.geometry import Point
from repro.network.graph import WasnGraph
from repro.network.node import NodeId
from repro.routing.base import PacketTrace, Phase, Router
from repro.routing.perimeter import PlanarizationCache, face_recovery

__all__ = ["GreedyRouter", "HoleBoundaries"]

_EPS = 1e-9


class HoleBoundaries(Protocol):
    """Boundary information in the BOUNDHOLE sense (paper ref [5])."""

    def boundary_of(self, node: NodeId) -> tuple[NodeId, ...] | None:
        """The boundary cycle through ``node``, or ``None``."""
        ...


class GreedyRouter(Router):
    """GF routing: greedy forwarding + perimeter recovery."""

    name = "GF"

    def __init__(
        self,
        graph: WasnGraph,
        ttl: int | None = None,
        planarization: str = "gabriel",
        recovery: str = "face",
        hole_boundaries: HoleBoundaries | None = None,
    ):
        super().__init__(graph, ttl)
        try:
            self._planar = PlanarizationCache(graph, planarization)
        except ValueError:
            raise ValueError(
                f"unknown planarization {planarization!r}; "
                "expected 'gabriel' or 'rng'"
            ) from None
        if recovery not in ("face", "boundhole"):
            raise ValueError(
                f"unknown recovery {recovery!r}; expected 'face' or 'boundhole'"
            )
        if recovery == "boundhole" and hole_boundaries is None:
            raise ValueError("boundhole recovery needs hole_boundaries")
        self._recovery = recovery
        self._boundaries = hole_boundaries

    def _on_topology_change(self, delta) -> None:
        """Drop the planarization; re-derive boundaries on demand.

        Both are pure functions of the graph, so lazily rebuilding
        them on the next perimeter entry restores exactly the state a
        fresh router would compute — nothing survives a rebind.
        """
        self._planar.rebind(self.graph)
        if self._recovery == "boundhole":
            self._boundaries = None

    def _hole_boundaries(self) -> HoleBoundaries:
        """Current boundary information, rebuilt after a rebind.

        Construction-time boundaries are typically the prepared
        network's (BOUNDHOLE already ran); after a topology change the
        router re-runs the protocol on its own, first time the packet
        actually needs a boundary walk.
        """
        if self._boundaries is None:
            # Local import: the protocols layer sits beside routing and
            # importing it at module scope would tangle the two.
            from repro.protocols.boundhole import build_hole_boundaries

            self._boundaries = build_hole_boundaries(self.graph)
        return self._boundaries

    # ------------------------------------------------------------------

    def _run(self, trace: PacketTrace, destination: NodeId) -> str | None:
        graph = self.graph
        pd = graph.position(destination)
        while not trace.exhausted():
            u = trace.current
            if u == destination:
                return None
            if graph.has_edge(u, destination):
                trace.advance(destination, Phase.GREEDY)
                return None
            pu = graph.position(u)
            best = self._greedy_step(u, pu, pd)
            if best is not None:
                trace.advance(best, Phase.GREEDY)
                continue
            # Local minimum: recover.
            trace.perimeter_entries += 1
            if self._recovery == "boundhole":
                failure = self._boundhole_recovery(trace, destination)
            else:
                failure = face_recovery(
                    trace, graph, self._planar, destination
                )
            if failure is not None:
                return failure
            if trace.current == destination:
                return None
        return "ttl_exceeded"

    def _greedy_step(self, u: NodeId, pu: Point, pd: Point) -> NodeId | None:
        """The neighbour strictly closest to the destination, if any."""
        graph = self.graph
        du = pu.distance_to(pd)
        best: NodeId | None = None
        best_dist = du - _EPS
        for v in graph.neighbors(u):
            dv = graph.position(v).distance_to(pd)
            if dv < best_dist:
                best = v
                best_dist = dv
        return best

    # ------------------------------------------------------------------
    # BOUNDHOLE boundary recovery
    # ------------------------------------------------------------------

    def _boundhole_recovery(
        self, trace: PacketTrace, destination: NodeId
    ) -> str | None:
        """Walk the precomputed hole boundary until closer than stuck.

        The boundary is a cycle of nodes enclosing the hole that caused
        the local minimum (BOUNDHOLE's output).  The packet walks it in
        the direction whose first step loses less distance, and exits
        on the first node closer to the destination than the stuck
        node.  If the stuck node is on no boundary (e.g. it only got
        stuck because of the interest-area edge), face recovery is used
        instead.
        """
        graph = self.graph
        pd = graph.position(destination)
        stuck = trace.current
        exit_dist = graph.position(stuck).distance_to(pd)
        cycle = self._hole_boundaries().boundary_of(stuck)
        if cycle is None or len(cycle) < 2:
            return face_recovery(trace, graph, self._planar, destination)

        index = cycle.index(stuck)
        forward = cycle[index + 1 :] + cycle[:index]
        backward = tuple(reversed(cycle[:index])) + tuple(
            reversed(cycle[index + 1 :])
        )
        if forward[0] not in graph or backward[0] not in graph:
            # A stale boundary that names a node the graph no longer
            # has (e.g. built before node failures).
            return face_recovery(trace, graph, self._planar, destination)
        # Pick the direction that gets closer to the destination sooner.
        walk = (
            forward
            if graph.position(forward[0]).distance_to(pd)
            <= graph.position(backward[0]).distance_to(pd)
            else backward
        )
        for node in walk:
            if trace.exhausted():
                return "ttl_exceeded"
            if not graph.has_edge(trace.current, node):
                # Boundary edges are graph edges by construction; a gap
                # means the boundary is stale (e.g. node failures).
                return face_recovery(trace, graph, self._planar, destination)
            trace.advance(node, Phase.PERIMETER)
            if graph.has_edge(node, destination):
                if trace.exhausted():
                    return "ttl_exceeded"
                trace.advance(destination, Phase.PERIMETER)
                return None
            if graph.position(node).distance_to(pd) < exit_dist - _EPS:
                return None  # resume greedy
        # Walked the whole boundary without getting closer.
        return "unreachable"
