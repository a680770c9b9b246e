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
destination than the point where it got stuck.  The forwarding loop
is ``_GreedyExecutor`` in :mod:`repro.routing.batch`.
"""

from __future__ import annotations

from typing import Protocol

from repro.network.graph import WasnGraph
from repro.network.node import NodeId
from repro.routing.base import Router
from repro.routing.perimeter import PlanarizationCache

__all__ = ["GreedyRouter", "HoleBoundaries"]


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
