"""The planar substrate of face-routing perimeter recovery.

The paper's perimeter phases cite "the 'right-hand rule' policy [2]" —
reference [2] being the face-routing paper (Routing with Guaranteed
Delivery in Ad Hoc Wireless Networks).  GF runs that traversal with
the right hand (classic GPSR perimeter mode); SLGF2 with the hand its
either-hand rule chose, sticking with it for the phase (Algorithm 3
step 5).  Both walk one face walk, ``_Executor._face_phase`` in
:mod:`repro.routing.batch`:

* the walk runs on a planarized subgraph (Gabriel/RNG adjacency);
* the first edge is the first one swept from the ray toward the
  destination; afterwards the sweep starts from the edge back to the
  previous node (exclusive, so the packet never u-turns needlessly);
* an edge crossing the stuck-node-to-destination segment closer to the
  destination than any previous crossing triggers a face change (the
  sweep rotates past it);
* traversing the first edge of the current face a second time means
  the destination is unreachable (the GPSR drop rule);
* the phase exits at the first node strictly closer to the destination
  than the stuck node.

This module holds the planarized adjacency those walks read.
"""

from __future__ import annotations

from repro.network.graph import WasnGraph
from repro.network.node import NodeId

__all__ = ["PlanarizationCache"]

_KINDS = ("gabriel", "rng")


class PlanarizationCache:
    """Lazily computed planar adjacency, invalidated on topology deltas.

    The planarized subgraph the face walks run on is a pure function
    of the network graph, but an O(E * k) one — too expensive to
    recompute per delta under churn, and wasted entirely on routes
    that never leave greedy mode.  This cache computes it on first
    use, serves ``cache[u]`` lookups like the plain adjacency dict,
    and :meth:`rebind` drops it when the owning router learns of a
    topology change — the next perimeter entry rebuilds against the
    current graph.

    The computation itself lives on the graph's columnar core
    (:meth:`~repro.network.core.TopologyCore.planar_adjacency`), so
    every cache over the same core — GF's and SLGF2's, say — shares
    one CSR-mask construction instead of planarizing separately.
    """

    def __init__(self, graph: WasnGraph, kind: str = "gabriel"):
        if kind not in _KINDS:
            raise ValueError(
                f"unknown planarization {kind!r}; "
                f"expected one of {sorted(_KINDS)}"
            )
        self._graph = graph
        self._kind = kind
        self._adjacency: dict[NodeId, tuple[NodeId, ...]] | None = None

    @property
    def kind(self) -> str:
        """Which planar construction this cache computes."""
        return self._kind

    @property
    def adjacency(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """The planar adjacency, computed on first access."""
        if self._adjacency is None:
            self._adjacency = self._graph.core.planar_adjacency(self._kind)
        return self._adjacency

    def __getitem__(self, node: NodeId) -> tuple[NodeId, ...]:
        return self.adjacency[node]

    def rebind(self, graph: WasnGraph) -> None:
        """Point at an updated graph, discarding the cached adjacency."""
        self._graph = graph
        self._adjacency = None
